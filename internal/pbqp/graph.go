// Package pbqp implements Partitioned Boolean Quadratic Programming
// problem graphs as used for register allocation (Scholz & Eckstein 2002).
//
// A PBQP problem is an undirected graph whose vertices carry an m-sized
// cost vector and whose edges carry an m×m cost matrix; entries are
// extended reals (finite or +∞). A solution assigns one of m colors to
// every vertex; its cost is the sum of the selected vector entries plus,
// for every edge, the matrix entry selected by the two endpoint colors
// (Equation 1 of the paper). The goal is the minimum-cost assignment.
//
// The Graph type is mutable: solvers remove vertices, fold edge costs
// into vertex vectors, and insert new edges (the R2 reduction). Edge
// matrices are stored in both orientations so that EdgeCost(u, v) is
// always addressed as (color of u, color of v); mutators keep the two
// orientations in sync.
//
// Each vertex's edges are one row: a slice of (neighbor, matrix)
// entries whose prefix ascends by neighbor, so the ordered walks —
// Neighbors, Edges, TotalCost, NewCSR — are scans with no sort, a
// lookup is a binary search, and Clone is two flat copies. A plain
// sorted slice would make some mutations quadratic in a vertex's degree
// (a hub losing its leaves from the front, an R2 fan inserting at the
// front), so two slack devices keep every mutation within O(√degree)
// amortized: a removal far from the row's end leaves a tombstone, and
// the row is compacted once tombstones are half of it; an insert far
// from the end goes to a short unsorted tail after the prefix, merged
// into it once the tail outgrows √len. Only mutators tidy a row. Reads
// never write — solvers share one input graph read-only across
// goroutines — so a read that meets a tail or tombstones orders a
// private copy of the row instead.
//
// Ownership rule: a *cost.Matrix installed in a Graph is never written
// again. Mutators replace an edge's two matrices, they do not edit
// them, so Clone, Induced, Permute, CSR snapshots and solver records
// share matrices freely — across graphs and across goroutines — as Read
// shares one pair among the edges whose costs are bit-identical, and
// only vectors, liveness and adjacency are per-graph state. One owner
// recycles matrices: a reduction (internal/reduce) installs R2's folds
// with SetEdgePair as pairs cut from its arena, each written in full
// before it is installed. Their storage is written again only when the
// reduction is restarted on a new input, and only pooled workspaces are
// restarted — scholz's, and decomp's, whose remainder its block graphs
// share — each once its solve has read the last of them, when nothing
// else reads them any more (a block graph still holding them in a pool
// is rebuilt before it is read).
// Because an installed matrix never changes, what cost.Matrix.Diagonal
// learns of it the first time RN asks stays true for the matrix's
// life; a recycled arena pair is a fresh cost.Matrix value, which
// starts unclassified. One matrix may also serve many edges, and both
// orientations of an edge whose matrix is symmetric: the graph builders
// (internal/ate, internal/regalloc) install each distinct constraint
// matrix once.
package pbqp

import (
	"cmp"
	"fmt"
	"slices"

	"pbqprl/internal/cost"
)

// Graph is a PBQP problem graph with a uniform color count m.
// Vertices are identified by their index in [0, NumVertices()).
// Removed vertices stay addressable but are no longer alive.
type Graph struct {
	m     int
	vecs  []cost.Vector
	alive []bool
	live  int
	rows  []row // rows[u] holds u's edges, oriented with rows = u's color
	// The arrays Clone and CloneInto cut the vectors and the rows from,
	// kept so CloneInto can cut them again from the same storage.
	vecStore   cost.Vector
	entryStore []entry
	// InducedInto's scratch: pos is its position index over its source
	// graph's vertices, all -1 between calls; spill and fill are where
	// it orders the rows (sortRows).
	pos   []int32
	spill []entry
	fill  []int32
}

// entry is one edge of a row: the neighbor and the matrix oriented from
// the row's vertex. A nil matrix is a tombstone, which only the sorted
// prefix holds; it keeps its neighbor so the prefix stays searchable.
type entry struct {
	v int
	m *cost.Matrix
}

// row is one vertex's edges: es[:sorted] ascends strictly by neighbor
// and holds dead tombstones, es[sorted:] is the unsorted tail. A
// neighbor appears at most once, live or tombstoned, in the whole row.
type row struct {
	es     []entry
	sorted int
	dead   int
}

func byNeighbor(a, b entry) int { return cmp.Compare(a.v, b.v) }

// short reports whether k entries are few enough, in a row of n, to
// shift by one on an insert or removal, or to leave in the unsorted
// tail: at most √n, and never fewer than eight.
func short(k, n int) bool { return k <= 8 || k*k <= n }

// lowerBound returns the first index of es, which ascends by neighbor,
// whose neighbor is not below v.
func lowerBound(es []entry, v int) int {
	lo, hi := 0, len(es)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if es[h].v < v {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// search returns the first index of the sorted prefix whose neighbor is
// not below v.
func (r *row) search(v int) int { return lowerBound(r.es[:r.sorted], v) }

// find returns the index of v's live entry, or -1.
func (r *row) find(v int) int {
	if i := r.search(v); i < r.sorted && r.es[i].v == v {
		if r.es[i].m == nil {
			return -1 // a tombstoned neighbor is never in the tail too
		}
		return i
	}
	for i := r.sorted; i < len(r.es); i++ {
		if r.es[i].v == v {
			return i
		}
	}
	return -1
}

func (r *row) degree() int { return len(r.es) - r.dead }

// set installs m as the matrix toward v, replacing v's entry or adding
// one.
func (r *row) set(v int, m *cost.Matrix) {
	n := len(r.es)
	if n == r.sorted && (n == 0 || r.es[n-1].v < v) {
		r.es = append(r.es, entry{v, m}) // the ascending append path
		r.sorted++
		return
	}
	p := r.search(v)
	if p < r.sorted && r.es[p].v == v {
		if r.es[p].m == nil {
			r.dead--
		}
		r.es[p].m = m
		return
	}
	for i := r.sorted; i < n; i++ {
		if r.es[i].v == v {
			r.es[i].m = m
			return
		}
	}
	if !short(r.sorted-p, n) {
		r.es = append(r.es, entry{v, m})
		r.tidy()
		return
	}
	// Open a slot at p; the tail's first entry, if any, moves to the end
	// to make room.
	if r.sorted < n {
		r.es = append(r.es, r.es[r.sorted])
	} else {
		r.es = append(r.es, entry{})
	}
	copy(r.es[p+1:r.sorted+1], r.es[p:r.sorted])
	r.es[p] = entry{v, m}
	r.sorted++
}

// remove deletes v's entry if there is one.
func (r *row) remove(v int) {
	i := r.find(v)
	if i < 0 {
		return
	}
	last := len(r.es) - 1
	switch {
	case i >= r.sorted: // the tail has no order to keep
		r.es[i] = r.es[last]
	case short(last-i, last+1):
		copy(r.es[i:], r.es[i+1:])
		r.sorted--
	default:
		r.es[i].m = nil
		r.dead++
		r.tidy()
		return
	}
	r.es[last] = entry{}
	r.es = r.es[:last]
	r.tidy()
}

// tidy compacts the row once tombstones are half of it or the tail has
// outgrown short.
func (r *row) tidy() {
	if (r.dead > 0 && 2*r.dead >= len(r.es)) || !short(len(r.es)-r.sorted, len(r.es)) {
		r.compact()
	}
}

// compact drops the tombstones and merges the sorted tail into the
// prefix, in place.
func (r *row) compact() {
	tail := slices.Clone(r.es[r.sorted:])
	slices.SortFunc(tail, byNeighbor)
	n := 0
	for _, e := range r.es[:r.sorted] {
		if e.m != nil {
			r.es[n] = e
			n++
		}
	}
	// Merge from the top down: the slot written is always above every
	// prefix entry not yet moved.
	k := n + len(tail)
	clear(r.es[k:])
	r.es = r.es[:k]
	for j := len(tail) - 1; j >= 0; j-- {
		for n > 0 && r.es[n-1].v > tail[j].v {
			k, n = k-1, n-1
			r.es[k] = r.es[n]
		}
		k--
		r.es[k] = tail[j]
	}
	r.sorted, r.dead = len(r.es), 0
}

// ordered returns the row's live entries in ascending neighbor order
// without writing the row: a tidy row is returned as it is (read-only),
// anything else is ordered in *scratch, which is kept for reuse.
func (r *row) ordered(scratch *[]entry) []entry {
	if r.dead == 0 && r.sorted == len(r.es) {
		return r.es
	}
	buf := (*scratch)[:0]
	for _, e := range r.es[:r.sorted] {
		if e.m != nil {
			buf = append(buf, e)
		}
	}
	if r.sorted < len(r.es) {
		buf = append(buf, r.es[r.sorted:]...)
		slices.SortFunc(buf, byNeighbor)
	}
	*scratch = buf
	return buf
}

// flatVectors returns n zero vectors of length m cut from one array.
func flatVectors(n, m int) []cost.Vector {
	vecs := make([]cost.Vector, n)
	flat := make(cost.Vector, n*m)
	for u := range vecs {
		vecs[u] = flat[u*m : (u+1)*m : (u+1)*m]
	}
	return vecs
}

// New returns a graph with n vertices, m colors, zero cost vectors and
// no edges. It panics if n < 0 or m <= 0.
func New(n, m int) *Graph {
	if n < 0 || m <= 0 {
		panic(fmt.Sprintf("pbqp: invalid dimensions n=%d m=%d", n, m))
	}
	g := &Graph{
		m:     m,
		vecs:  flatVectors(n, m),
		alive: make([]bool, n),
		live:  n,
		rows:  make([]row, n),
	}
	for u := range g.alive {
		g.alive[u] = true
	}
	return g
}

// M returns the number of colors per vertex.
func (g *Graph) M() int { return g.m }

// NumVertices returns the original vertex count, including removed ones.
func (g *Graph) NumVertices() int { return len(g.vecs) }

// AliveCount returns the number of vertices not yet removed.
func (g *Graph) AliveCount() int { return g.live }

// Alive reports whether vertex u has not been removed.
func (g *Graph) Alive(u int) bool { return g.alive[u] }

// VertexCost returns vertex u's cost vector. The returned slice aliases
// graph storage; use AddToVertexCost or SetVertexCost to mutate.
func (g *Graph) VertexCost(u int) cost.Vector { return g.vecs[u] }

// SetVertexCost replaces vertex u's cost vector with a copy of v.
// It panics if len(v) != M().
func (g *Graph) SetVertexCost(u int, v cost.Vector) {
	if len(v) != g.m {
		panic("pbqp: vertex cost vector has wrong length")
	}
	g.vecs[u] = v.Clone()
}

// AddToVertexCost adds v elementwise into vertex u's cost vector.
func (g *Graph) AddToVertexCost(u int, v cost.Vector) {
	g.vecs[u].AddInPlace(v)
}

// Liberty returns the number of finite entries in u's cost vector: the
// number of colors currently selectable for u.
func (g *Graph) Liberty(u int) int { return g.vecs[u].Liberty() }

// EdgeCost returns the cost matrix of edge (u, v) oriented so that rows
// index u's color and columns index v's color, or nil if no edge exists.
// The returned matrix is graph-owned and possibly shared with clones of
// g: never write to it. It stays valid, unchanged, after any later
// mutation of the graph.
func (g *Graph) EdgeCost(u, v int) *cost.Matrix {
	r := &g.rows[u]
	if i := r.find(v); i >= 0 {
		return r.es[i].m
	}
	return nil
}

// SetEdgeCost installs matrix mat (oriented with rows = u's color) as the
// cost of edge (u, v), replacing any existing edge. It panics on a self
// loop, on dead endpoints, or if mat is not M()×M().
func (g *Graph) SetEdgeCost(u, v int, mat *cost.Matrix) {
	g.SetEdgePair(u, v, mat.Clone(), mat.Transpose())
}

// AddEdgeCost adds mat (oriented with rows = u's color) into the cost of
// edge (u, v), creating the edge if absent. The sum is installed as a
// fresh pair of matrices; the previous pair, which clones of g may
// share, is left untouched.
func (g *Graph) AddEdgeCost(u, v int, mat *cost.Matrix) {
	g.checkEdge(u, v)
	if mat.Rows != g.m || mat.Cols != g.m {
		panic("pbqp: edge cost matrix has wrong shape")
	}
	sum := mat.Clone()
	if existing := g.EdgeCost(u, v); existing != nil {
		sum.AddInPlace(existing)
	}
	g.SetEdgePair(u, v, sum, sum.Transpose())
}

// SetEdgePair installs uv (rows = u's color) and vu, its transpose, as
// the two orientations of edge (u, v), replacing any existing edge, and
// takes ownership of both: the caller has written them in full and
// never writes them again (the ownership rule). It is SetEdgeCost
// without the copies: the pair may serve other edges too, and uv and
// vu may be one matrix when it is symmetric. It panics on a self loop,
// on dead endpoints, or if either matrix is not M()×M().
func (g *Graph) SetEdgePair(u, v int, uv, vu *cost.Matrix) {
	g.checkEdge(u, v)
	if uv.Rows != g.m || uv.Cols != g.m || vu.Rows != g.m || vu.Cols != g.m {
		panic("pbqp: edge cost matrix has wrong shape")
	}
	g.rows[u].set(v, uv)
	g.rows[v].set(u, vu)
}

// adoptEdges installs the text reader's edges into g, which has none,
// taking ownership of both orientations of each: the reader built them,
// checked the endpoints and never touches them again, so AddEdgeCost's
// copies would buy nothing under the ownership rule, which also lets
// one pair serve every edge with its costs (see matrices). Every row is
// filled in input order into one array, then sorted if it arrived out
// of order. It reports whether some row lists a neighbor twice — a
// duplicate edge, which leaves g invalid and is the caller's error.
func (g *Graph) adoptEdges(edges []edgeLine) (dup bool) {
	// end[u+1] counts row u; summed, end[u] is where row u starts, and
	// filling advances it to where row u ends.
	end := make([]int, len(g.rows)+1)
	for _, e := range edges {
		end[e.u+1]++
		end[e.v+1]++
	}
	for u := range g.rows {
		end[u+1] += end[u]
	}
	flat := make([]entry, end[len(g.rows)])
	for _, e := range edges {
		flat[end[e.u]] = entry{int(e.v), e.uv}
		end[e.u]++
		flat[end[e.v]] = entry{int(e.u), e.vu}
		end[e.v]++
	}
	start := 0
	for u := range g.rows {
		es := flat[start:end[u]:end[u]]
		start = end[u]
		for i := 1; i < len(es); i++ {
			if es[i-1].v >= es[i].v { // out of order, or a repeat
				slices.SortFunc(es, byNeighbor)
				for j := 1; j < len(es); j++ {
					dup = dup || es[j-1].v == es[j].v
				}
				break
			}
		}
		g.rows[u] = row{es: es, sorted: len(es)}
	}
	return dup
}

func (g *Graph) checkEdge(u, v int) {
	if u == v {
		panic("pbqp: self loop")
	}
	if !g.alive[u] || !g.alive[v] {
		panic("pbqp: edge endpoint is not alive")
	}
}

// RemoveEdge deletes edge (u, v) if present.
func (g *Graph) RemoveEdge(u, v int) {
	g.rows[u].remove(v)
	g.rows[v].remove(u)
}

// RemoveVertex detaches vertex u: all incident edges are deleted and the
// vertex becomes dead. Its cost vector is retained for inspection.
func (g *Graph) RemoveVertex(u int) {
	if !g.alive[u] {
		return
	}
	for _, e := range g.rows[u].es {
		if e.m != nil {
			g.rows[e.v].remove(u)
		}
	}
	g.rows[u] = row{} // a dead vertex never gets an edge again (checkEdge)
	g.alive[u] = false
	g.live--
}

// Neighbors returns the alive neighbors of u in ascending order.
func (g *Graph) Neighbors(u int) []int {
	return g.AppendNeighbors(make([]int, 0, g.Degree(u)), u)
}

// AppendNeighbors appends the alive neighbors of u to dst in ascending
// order and returns the extended slice: Neighbors into a buffer the
// caller reuses.
func (g *Graph) AppendNeighbors(dst []int, u int) []int {
	r := &g.rows[u]
	start := len(dst)
	for _, e := range r.es {
		if e.m != nil {
			dst = append(dst, e.v)
		}
	}
	if r.sorted < len(r.es) { // the tail follows the prefix unordered
		slices.Sort(dst[start:])
	}
	return dst
}

// Degree returns the number of incident edges of u.
func (g *Graph) Degree(u int) int { return g.rows[u].degree() }

// Vertices returns the alive vertices in ascending order.
func (g *Graph) Vertices() []int {
	vs := make([]int, 0, g.live)
	for u := range g.vecs {
		if g.alive[u] {
			vs = append(vs, u)
		}
	}
	return vs
}

// Edge is an undirected edge with its canonical (U < V) orientation.
type Edge struct {
	U, V int
	M    *cost.Matrix // rows = U's color, columns = V's color
}

// Edges returns the alive edges in canonical order, sorted by (U, V).
// The matrices are graph-owned and possibly shared: never write to them.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.NumEdges())
	var scratch []entry
	for u := range g.rows {
		r := g.rows[u].ordered(&scratch)
		for _, e := range r[lowerBound(r, u+1):] {
			es = append(es, Edge{U: u, V: e.v, M: e.m})
		}
	}
	return es
}

// NumEdges returns the number of alive edges.
func (g *Graph) NumEdges() int {
	n := 0
	for u := range g.rows {
		n += g.rows[u].degree()
	}
	return n / 2
}

// Clone returns an independent copy of g, including dead-vertex
// bookkeeping: vectors, liveness and adjacency are copied, both
// orientations of every edge matrix are shared (see the ownership rule
// in the package comment), so no mutation of either graph is visible
// through the other. The rows are copied as they stand into one array,
// each capped at its own length, so a row that later grows moves out
// on its own.
func (g *Graph) Clone() *Graph {
	c := new(Graph)
	g.CloneInto(c)
	return c
}

// CloneInto makes dst the copy of g that Clone returns, cutting its
// vectors, liveness, rows and row entries from the arrays dst already
// holds wherever they are large enough, so a graph cloned into again
// and again reaches a steady state that allocates nothing. Everything
// dst held before is overwritten; dst must not be g.
func (g *Graph) CloneInto(dst *Graph) {
	n, total := len(g.vecs), 0
	for u := range g.rows {
		total += len(g.rows[u].es)
	}
	clear(dst.vecs[min(n, len(dst.vecs)):])
	clear(dst.rows[min(n, len(dst.rows)):])
	clear(dst.entryStore[min(total, len(dst.entryStore)):])
	dst.m, dst.live = g.m, g.live
	dst.vecs = slices.Grow(dst.vecs[:0], n)[:n]
	dst.vecStore = slices.Grow(dst.vecStore[:0], n*g.m)[:n*g.m]
	dst.alive = append(dst.alive[:0], g.alive...)
	dst.rows = append(dst.rows[:0], g.rows...)
	dst.entryStore = slices.Grow(dst.entryStore[:0], total)[:total]
	flat := dst.entryStore
	for u := range dst.rows {
		dst.vecs[u] = dst.vecStore[u*g.m : (u+1)*g.m : (u+1)*g.m]
		copy(dst.vecs[u], g.vecs[u])
		k := copy(flat, g.rows[u].es)
		dst.rows[u].es, flat = flat[:k:k], flat[k:]
	}
}

// Selection is a full color assignment: Selection[u] is the color chosen
// for vertex u, in [0, M()).
type Selection []int

// Clone returns a copy of s.
func (s Selection) Clone() Selection {
	t := make(Selection, len(s))
	copy(t, s)
	return t
}

// TotalCost evaluates Equation 1 for the given selection over all alive
// vertices and edges. It panics if the selection is too short or contains
// an out-of-range color for an alive vertex.
func (g *Graph) TotalCost(sel Selection) cost.Cost {
	var sum cost.Cost
	for u := range g.vecs {
		if !g.alive[u] {
			continue
		}
		if u >= len(sel) || sel[u] < 0 || sel[u] >= g.m {
			panic(fmt.Sprintf("pbqp: invalid selection for vertex %d", u))
		}
		sum = sum.Add(g.vecs[u][sel[u]])
	}
	// Canonical (U, V) order, as Edges() lists them, so the sum keeps
	// its bits; nothing is materialised.
	var scratch []entry
	for u := range g.rows {
		r := g.rows[u].ordered(&scratch)
		for _, e := range r[lowerBound(r, u+1):] {
			sum = sum.Add(e.m.At(sel[u], sel[e.v]))
		}
	}
	return sum
}

// Permute returns a new graph in which new vertex i corresponds to old
// vertex order[i]. The order must be a permutation of the alive vertices
// of g; dead vertices are dropped. Permute is how solvers renumber a
// graph into their chosen coloring order. Like Clone, the result shares
// g's edge matrices.
func (g *Graph) Permute(order []int) *Graph {
	if len(order) != g.live {
		panic("pbqp: order must list every alive vertex exactly once")
	}
	return g.Induced(order)
}

// Induced returns the subgraph of g induced by verts, renumbered so
// that new vertex i is old vertex verts[i]: vectors are copied, and
// every edge of g between two listed vertices is adopted with both of
// its orientations shared, not copied. verts must list distinct alive
// vertices.
func (g *Graph) Induced(verts []int) *Graph {
	h := new(Graph)
	g.InducedInto(h, verts)
	h.pos, h.spill, h.fill = nil, nil, nil // scratch for the next InducedInto, which h will not see
	return h
}

// InducedInto makes dst the graph Induced(verts) returns, cutting its
// vectors, liveness, rows and row entries from the arrays dst already
// holds wherever they are large enough, as CloneInto does, so a graph
// induced into again and again — decomp's block graphs — reaches a
// steady state that allocates nothing. dst's vectors are its own, for
// its owner to write. Everything dst held before is overwritten; dst
// must not be g.
//
// Each row is filled in g's row order, which is ascending in the new
// numbering only where verts ascends; when some row is not, sortRows
// orders them all at once.
func (g *Graph) InducedInto(dst *Graph, verts []int) {
	// dst.pos maps g's vertices to their new numbers, -1 off verts; it
	// is all -1 between calls.
	if k := len(dst.pos); k < len(g.vecs) {
		dst.pos = slices.Grow(dst.pos, len(g.vecs)-k)[:len(g.vecs)]
		for u := k; u < len(g.vecs); u++ {
			dst.pos[u] = -1
		}
	}
	n, total := len(verts), 0 // total is exact when verts is a whole component
	for i, u := range verts {
		if !g.alive[u] || dst.pos[u] >= 0 {
			dst.unmark(verts[:i])
			if !g.alive[u] {
				panic("pbqp: vertex list contains a dead vertex")
			}
			panic("pbqp: vertex list contains a duplicate vertex")
		}
		dst.pos[u] = int32(i)
		total += len(g.rows[u].es)
	}
	clear(dst.vecs[min(n, len(dst.vecs)):])
	clear(dst.rows[min(n, len(dst.rows)):])
	dst.m, dst.live = g.m, n
	dst.vecs = slices.Grow(dst.vecs[:0], n)[:n]
	dst.vecStore = slices.Grow(dst.vecStore[:0], n*g.m)[:n*g.m]
	dst.alive = slices.Grow(dst.alive[:0], n)[:n]
	dst.rows = slices.Grow(dst.rows[:0], n)[:n]
	used := len(dst.entryStore)
	flat := slices.Grow(dst.entryStore[:0], total)
	ascending := true
	for i, u := range verts {
		dst.vecs[i] = dst.vecStore[i*g.m : (i+1)*g.m : (i+1)*g.m]
		copy(dst.vecs[i], g.vecs[u])
		dst.alive[i] = true
		start := len(flat)
		for _, e := range g.rows[u].es {
			if e.m == nil {
				continue
			}
			if j := int(dst.pos[e.v]); j >= 0 {
				ascending = ascending && (len(flat) == start || flat[len(flat)-1].v < j)
				flat = append(flat, entry{j, e.m})
			}
		}
		dst.rows[i] = row{es: flat[start:len(flat):len(flat)], sorted: len(flat) - start}
	}
	clear(flat[len(flat):max(used, len(flat))]) // the last graph's entries, which would pin its matrices
	dst.entryStore = flat
	dst.unmark(verts)
	if !ascending {
		dst.sortRows()
	}
}

// sortRows orders g's rows, which hold every live edge in both
// orientations and are cut one after another from the start of
// g.entryStore, by two stable counting passes over the neighbors, as
// a sparse matrix is transposed twice. The first walks the rows in
// order and buckets every entry of row i under its neighbor j as
// (i, matrix), so each bucket lists its sources ascending; the second
// walks the buckets in order and appends (j, matrix) back to row i, so
// each row comes out ascending and each matrix keeps its orientation,
// from i. Bucket j is as long as row j, whose edges are the ones
// toward j, so the buckets take the rows' own offsets, and every row
// refills in place.
func (g *Graph) sortRows() {
	n, total := len(g.rows), 0
	g.fill = slices.Grow(g.fill[:0], n)[:n]
	for j := range g.rows {
		g.fill[j] = int32(total)
		total += len(g.rows[j].es)
	}
	used := len(g.spill)
	g.spill = slices.Grow(g.spill[:0], total)[:total]
	for i := range g.rows {
		r := &g.rows[i]
		for _, e := range r.es {
			g.spill[g.fill[e.v]] = entry{i, e.m}
			g.fill[e.v]++
		}
		r.es = r.es[:0]
	}
	lo := int32(0)
	for j, hi := range g.fill {
		for _, e := range g.spill[lo:hi] {
			r := &g.rows[e.v]
			r.es = append(r.es, entry{j, e.m})
		}
		lo = hi
	}
	clear(g.spill[total:max(used, total)]) // as InducedInto's entries
}

// unmark resets g.pos to -1 at verts.
func (g *Graph) unmark(verts []int) {
	for _, u := range verts {
		g.pos[u] = -1
	}
}

// Validate checks internal consistency: orientation symmetry, shape,
// liveness, and the row layout's invariants (see row). It is intended
// for tests and debugging.
func (g *Graph) Validate() error {
	live := 0
	for u := range g.vecs {
		if g.alive[u] {
			live++
		}
		if len(g.vecs[u]) != g.m {
			return fmt.Errorf("pbqp: vertex %d has vector length %d, want %d", u, len(g.vecs[u]), g.m)
		}
		r := &g.rows[u]
		if err := r.check(u, len(g.vecs)); err != nil {
			return fmt.Errorf("pbqp: row %d: %w", u, err)
		}
		for _, e := range r.es {
			v := e.v
			if e.m == nil {
				continue
			}
			if !g.alive[u] || !g.alive[v] {
				return fmt.Errorf("pbqp: edge (%d,%d) touches dead vertex", u, v)
			}
			back := g.EdgeCost(v, u)
			if back == nil {
				return fmt.Errorf("pbqp: edge (%d,%d) missing reverse orientation", u, v)
			}
			if !e.m.Equal(back.Transpose()) {
				return fmt.Errorf("pbqp: edge (%d,%d) orientations disagree", u, v)
			}
		}
	}
	if live != g.live {
		return fmt.Errorf("pbqp: live count %d, counted %d", g.live, live)
	}
	return nil
}

// check verifies the row layout: a strictly ascending prefix with an
// exact tombstone count under half the row, a tail within short that
// holds no tombstone and no neighbor listed elsewhere in the row, and
// every neighbor a vertex of a graph of n other than u, the row's own.
func (r *row) check(u, n int) error {
	if r.sorted < 0 || r.sorted > len(r.es) {
		return fmt.Errorf("sorted prefix %d of %d entries", r.sorted, len(r.es))
	}
	dead := 0
	for i, e := range r.es {
		if e.v == u {
			return fmt.Errorf("self loop at %d", u)
		}
		if e.v < 0 || e.v >= n {
			return fmt.Errorf("neighbor %d out of range", e.v)
		}
		if i >= r.sorted {
			if e.m == nil {
				return fmt.Errorf("tombstone for %d in the tail", e.v)
			}
			if p := r.search(e.v); p < r.sorted && r.es[p].v == e.v {
				return fmt.Errorf("neighbor %d in both the prefix and the tail", e.v)
			}
			if slices.ContainsFunc(r.es[i+1:], func(f entry) bool { return f.v == e.v }) {
				return fmt.Errorf("neighbor %d twice in the tail", e.v)
			}
			continue
		}
		if i > 0 && r.es[i-1].v >= e.v {
			return fmt.Errorf("prefix not strictly ascending at %d", i)
		}
		if e.m == nil {
			dead++
		}
	}
	if dead != r.dead {
		return fmt.Errorf("%d tombstones, counted %d", r.dead, dead)
	}
	if r.dead > 0 && 2*r.dead >= len(r.es) {
		return fmt.Errorf("%d tombstones in %d entries", r.dead, len(r.es))
	}
	if t := len(r.es) - r.sorted; !short(t, len(r.es)) {
		return fmt.Errorf("tail of %d in %d entries", t, len(r.es))
	}
	return nil
}
