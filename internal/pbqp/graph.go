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
// Ownership rule: a *cost.Matrix installed in a Graph is never written
// again. Mutators replace an edge's two matrices, they do not edit
// them, so Clone, Induced, Permute, CSR snapshots and solver records
// share matrices freely — across graphs and across goroutines — and
// only vectors, liveness and adjacency are per-graph state.
package pbqp

import (
	"fmt"
	"sort"

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
	adj   []map[int]*cost.Matrix // adj[u][v] is oriented (rows = u's color)
}

// New returns a graph with n vertices, m colors, zero cost vectors and
// no edges. It panics if n < 0 or m <= 0.
func New(n, m int) *Graph {
	if n < 0 || m <= 0 {
		panic(fmt.Sprintf("pbqp: invalid dimensions n=%d m=%d", n, m))
	}
	g := &Graph{
		m:     m,
		vecs:  make([]cost.Vector, n),
		alive: make([]bool, n),
		live:  n,
		adj:   make([]map[int]*cost.Matrix, n),
	}
	for u := 0; u < n; u++ {
		g.vecs[u] = cost.NewVector(m)
		g.alive[u] = true
		g.adj[u] = make(map[int]*cost.Matrix)
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

// HasEdge reports whether the edge (u, v) is present.
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := g.adj[u][v]
	return ok
}

// EdgeCost returns the cost matrix of edge (u, v) oriented so that rows
// index u's color and columns index v's color, or nil if no edge exists.
// The returned matrix is graph-owned and possibly shared with clones of
// g: never write to it. It stays valid, unchanged, after any later
// mutation of the graph.
func (g *Graph) EdgeCost(u, v int) *cost.Matrix { return g.adj[u][v] }

// SetEdgeCost installs matrix mat (oriented with rows = u's color) as the
// cost of edge (u, v), replacing any existing edge. It panics on a self
// loop, on dead endpoints, or if mat is not M()×M().
func (g *Graph) SetEdgeCost(u, v int, mat *cost.Matrix) {
	g.checkEdge(u, v)
	if mat.Rows != g.m || mat.Cols != g.m {
		panic("pbqp: edge cost matrix has wrong shape")
	}
	g.adj[u][v] = mat.Clone()
	g.adj[v][u] = mat.Transpose()
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
	if existing, ok := g.adj[u][v]; ok {
		sum.AddInPlace(existing)
	}
	g.adj[u][v] = sum
	g.adj[v][u] = sum.Transpose()
}

// adoptEdge installs uv (rows = u's color) and its transpose vu as the
// new edge (u, v), taking ownership: the caller — the text reader —
// built both, has checked the endpoints, and never touches them again,
// so AddEdgeCost's copies would buy nothing under the ownership rule.
func (g *Graph) adoptEdge(u, v int, uv, vu *cost.Matrix) {
	g.adj[u][v] = uv
	g.adj[v][u] = vu
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
	delete(g.adj[u], v)
	delete(g.adj[v], u)
}

// RemoveVertex detaches vertex u: all incident edges are deleted and the
// vertex becomes dead. Its cost vector is retained for inspection.
func (g *Graph) RemoveVertex(u int) {
	if !g.alive[u] {
		return
	}
	for v := range g.adj[u] {
		delete(g.adj[v], u)
	}
	g.adj[u] = nil // a dead vertex never gets an edge again (checkEdge)
	g.alive[u] = false
	g.live--
}

// Neighbors returns the alive neighbors of u in ascending order.
func (g *Graph) Neighbors(u int) []int {
	ns := make([]int, 0, len(g.adj[u]))
	for v := range g.adj[u] {
		ns = append(ns, v)
	}
	sort.Ints(ns)
	return ns
}

// Degree returns the number of incident edges of u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

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
	var later []int
	for u := range g.vecs {
		later = g.laterNeighbors(u, later)
		for _, v := range later {
			es = append(es, Edge{U: u, V: v, M: g.adj[u][v]})
		}
	}
	return es
}

// laterNeighbors returns u's neighbors v > u in ascending order, reusing
// buf. Walking u upward and each result in order visits every edge once
// in the canonical (U, V) order.
func (g *Graph) laterNeighbors(u int, buf []int) []int {
	buf = buf[:0]
	for v := range g.adj[u] {
		if v > u {
			buf = append(buf, v)
		}
	}
	sort.Ints(buf)
	return buf
}

// NumEdges returns the number of alive edges.
func (g *Graph) NumEdges() int {
	n := 0
	for u := range g.vecs {
		n += len(g.adj[u])
	}
	return n / 2
}

// Clone returns an independent copy of g, including dead-vertex
// bookkeeping: vectors, liveness and adjacency are copied, both
// orientations of every edge matrix are shared (see the ownership rule
// in the package comment), so no mutation of either graph is visible
// through the other.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		m:     g.m,
		vecs:  make([]cost.Vector, len(g.vecs)),
		alive: make([]bool, len(g.alive)),
		live:  g.live,
		adj:   make([]map[int]*cost.Matrix, len(g.adj)),
	}
	copy(c.alive, g.alive)
	for u := range g.vecs {
		c.vecs[u] = g.vecs[u].Clone()
		c.adj[u] = make(map[int]*cost.Matrix, len(g.adj[u]))
		for v, m := range g.adj[u] {
			c.adj[u][v] = m
		}
	}
	return c
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
	var later []int
	for u := range g.vecs {
		later = g.laterNeighbors(u, later)
		for _, v := range later {
			sum = sum.Add(g.adj[u][v].At(sel[u], sel[v]))
		}
	}
	return sum
}

// ColorVertex applies the paper's transition T (Section III-C): it adds
// row a of every incident edge matrix into the neighbor's cost vector,
// then detaches vertex u. It returns u's own selected cost (the edge
// contributions now live in the neighbors' vectors). It panics if u is
// dead or a is out of range.
func (g *Graph) ColorVertex(u, a int) cost.Cost {
	if !g.alive[u] {
		panic("pbqp: coloring a dead vertex")
	}
	if a < 0 || a >= g.m {
		panic("pbqp: color out of range")
	}
	own := g.vecs[u][a]
	for v, m := range g.adj[u] {
		g.vecs[v].AddInPlace(m.Row(a))
	}
	g.RemoveVertex(u)
	return own
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
	pos := make(map[int]int, len(verts))
	for i, u := range verts {
		if !g.alive[u] {
			panic("pbqp: vertex list contains a dead vertex")
		}
		if _, dup := pos[u]; dup {
			panic("pbqp: vertex list contains a duplicate vertex")
		}
		pos[u] = i
	}
	h := &Graph{
		m:     g.m,
		vecs:  make([]cost.Vector, len(verts)),
		alive: make([]bool, len(verts)),
		live:  len(verts),
		adj:   make([]map[int]*cost.Matrix, len(verts)),
	}
	for i, u := range verts {
		h.vecs[i] = g.vecs[u].Clone()
		h.alive[i] = true
		h.adj[i] = make(map[int]*cost.Matrix, len(g.adj[u])) // exact when verts is a whole component
		for v, m := range g.adj[u] {
			if j, ok := pos[v]; ok {
				h.adj[i][j] = m
			}
		}
	}
	return h
}

// Validate checks internal consistency: orientation symmetry, shape, and
// liveness invariants. It is intended for tests and debugging.
func (g *Graph) Validate() error {
	live := 0
	for u := range g.vecs {
		if g.alive[u] {
			live++
		}
		if len(g.vecs[u]) != g.m {
			return fmt.Errorf("pbqp: vertex %d has vector length %d, want %d", u, len(g.vecs[u]), g.m)
		}
		for v, m := range g.adj[u] {
			if u == v {
				return fmt.Errorf("pbqp: self loop at %d", u)
			}
			if !g.alive[u] || !g.alive[v] {
				return fmt.Errorf("pbqp: edge (%d,%d) touches dead vertex", u, v)
			}
			back, ok := g.adj[v][u]
			if !ok {
				return fmt.Errorf("pbqp: edge (%d,%d) missing reverse orientation", u, v)
			}
			if !m.Equal(back.Transpose()) {
				return fmt.Errorf("pbqp: edge (%d,%d) orientations disagree", u, v)
			}
		}
	}
	if live != g.live {
		return fmt.Errorf("pbqp: live count %d, counted %d", g.live, live)
	}
	return nil
}
