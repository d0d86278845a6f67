// Package reduce is the one PBQP reduction engine: the exact reductions
// R0, R1 and R2 of Scholz and Eckstein plus their lossy RN heuristic,
// driven in (degree, id) order by a lazy worklist heap.
//
// Apply is the solver-agnostic preprocessing pass: it never applies RN,
// so the reduced problem is cost-equivalent to the original, any solver
// — exact, enumeration, or Deep-RL — can run on the (often much smaller)
// remainder, and the removed vertices are recolored optimally
// afterwards. This mirrors production PBQP allocators, which always run
// the exact reductions before anything expensive. Restart and Step expose
// the same engine one elimination at a time; with RN enabled it is the
// whole Scholz–Eckstein solver (internal/solve/scholz).
//
// RN's kernel folds one incident edge at a time into a per-color sum.
// An edge whose matrix is diagonal (cost.Matrix.Diagonal: +0 off the
// diagonal, as register allocation's interference and hint edges are)
// folds in O(m) and propagates its selected row from the diagonal, so
// an RN elimination costs O(m·deg) on diagonal edges; any other edge
// is scanned in full, O(m²). Both give the same bits.
package reduce

import (
	"math"
	"slices"

	"pbqprl/internal/cost"
	"pbqprl/internal/pbqp"
)

// Reduction is a PBQP graph being reduced, or the result of reducing one.
// It is also the reduction's workspace: every step gathers into buffers
// it keeps, and Restart starts a new reduction in the storage of the
// last one, so a Reduction restarted again and again (scholz and decomp
// keep them in pools) reaches a steady state that allocates almost
// nothing.
type Reduction struct {
	// Graph is the remainder. After Apply every alive vertex has degree
	// ≥ 3; it may be empty, in which case Expand solves the whole
	// problem by itself.
	Graph *pbqp.Graph
	// Eliminated is the number of vertices removed so far.
	Eliminated int
	stack      []record
	work       worklist
	maxDeg     int // vertices above this degree are never queued

	adj   []int          // the neighbors of the vertex being eliminated
	mats  []*cost.Matrix // RN: the matrices toward adj
	diags []cost.Vector  // RN: their diagonals, nil where not diagonal
	acc   cost.Vector    // RN: the vertex's cost plus the local minima, per color
	row   cost.Vector    // RN: a diagonal edge's selected row
	delta cost.Vector    // R1: the fold into the neighbor's vector
	ids   []int          // the records' neighbor lists, cut from one array
	folds arena          // R2: the folded edges' matrix pairs
}

// record captures one elimination so Expand can re-derive the removed
// vertex's color from its (by then colored) former neighbors. Nothing
// here is copied: installed matrices are never written again (the pbqp
// ownership rule), and neither is a removed vertex's vector, so a
// record keeps the graph's own.
type record struct {
	u      int
	vec    cost.Vector     // u's vector at removal time; nil for RN
	nbrs   []int           // former neighbors: none for R0, 1 for R1, 2 for R2
	mats   [2]*cost.Matrix // edges toward nbrs, rows = u's color
	chosen int             // RN: the color decided at reduction time
}

// arena hands out the matrix pairs R2 folds edges into. They are cut
// from blocks that are never moved, so a pair stays where it was cut,
// and never cut twice until reset, which cuts the same blocks again
// from the first. Block sizes double up to arenaBlockCosts entries, so
// a reduction that folds little allocates little.
type arena struct {
	blocks []arenaBlock
	next   int // blocks[:next] are in use; blocks[next-1] is being cut
}

type arenaBlock struct {
	mats  []cost.Matrix
	costs []cost.Cost
}

// arenaBlockCosts caps a block's entries (64 KiB) once it has doubled
// that far.
const arenaBlockCosts = 1 << 13

func (b *arenaBlock) fits(m int) bool {
	return len(b.costs)+2*m*m <= cap(b.costs) && len(b.mats)+2 <= cap(b.mats)
}

// pair returns two fresh m×m matrices; their entries are stale, for
// the caller to overwrite in full.
func (a *arena) pair(m int) (uv, vu *cost.Matrix) {
	if a.next == 0 || !a.blocks[a.next-1].fits(m) {
		if a.next == len(a.blocks) || !a.blocks[a.next].fits(m) {
			size := 16 * m * m
			if a.next > 0 {
				size = max(size, min(2*cap(a.blocks[a.next-1].costs), arenaBlockCosts))
			}
			a.blocks = append(a.blocks[:a.next], arenaBlock{
				mats:  make([]cost.Matrix, 0, size/(m*m)),
				costs: make([]cost.Cost, 0, size),
			})
		}
		a.next++
	}
	b := &a.blocks[a.next-1]
	n, k := len(b.costs), len(b.mats)
	b.costs = b.costs[:n+2*m*m]
	b.mats = append(b.mats,
		cost.Matrix{Rows: m, Cols: m, Data: b.costs[n : n+m*m : n+m*m]},
		cost.Matrix{Rows: m, Cols: m, Data: b.costs[n+m*m : n+2*m*m : n+2*m*m]})
	return &b.mats[k], &b.mats[k+1]
}

// reset makes every pair available again: only for a reduction whose
// graph and records nothing reads any more.
func (a *arena) reset() {
	for i := range a.blocks[:a.next] {
		b := &a.blocks[i]
		b.mats, b.costs = b.mats[:0], b.costs[:0]
	}
	a.next = 0
}

// Apply exhaustively applies R0/R1/R2 to a copy of g and returns the
// reduction. The input graph is not mutated.
func Apply(g *pbqp.Graph) *Reduction {
	r := new(Reduction)
	r.Reapply(g)
	return r
}

// Reapply makes r what Apply(g) returns, reusing r's storage as
// Restart does, and under Restart's rule: nothing may read what r held
// before.
func (r *Reduction) Reapply(g *pbqp.Graph) {
	r.Restart(g, false)
	for r.Step(false) {
	}
}

// Restart starts a new reduction of g in r's storage: r's Graph is
// overwritten by a copy of g (pbqp.Graph.CloneInto), which is what the
// reduction mutates — the input graph never is — and its vertices are
// queued for elimination by Step. With rn false only vertices the exact
// reductions can take (degree ≤ 2) are ever queued, so Step reports
// false at the R0/R1/R2 fixpoint. With rn true every alive vertex is
// queued and Step colors vertices of degree ≥ 3 by the RN heuristic, so
// Step runs until the graph is empty. A zero Reduction is ready to
// restart.
//
// Restart cuts the matrices R2 installed in r's last graph again, so
// nothing may read r's Graph, a matrix taken from it or r's records any
// more — in particular, g must not be r.Graph.
//
// Elimination order is the (degree, id)-lexicographic minimum among the
// queued vertices, recomputed after every step — the same order a full
// min-degree scan per step would produce, but maintained by a lazy
// worklist heap so reducing an n-vertex graph costs O((n + pushes) log n)
// instead of O(n · eliminated). The equivalence rests on degrees never
// increasing during reduction (R0 touches nothing, R1 drops its neighbor
// by one, R2 drops y and z by one or keeps them level, RN drops every
// neighbor by one), so a popped entry is stale exactly when its recorded
// degree or liveness no longer matches and a fresh entry was pushed at
// the moment of the change.
func (r *Reduction) Restart(g *pbqp.Graph, rn bool) {
	if r.Graph == nil {
		r.Graph = new(pbqp.Graph)
	}
	g.CloneInto(r.Graph)
	clear(r.stack)
	// Every alive vertex is eliminated at most once, and keeps at most
	// two neighbor ids (R1 one, R2 two, RN none), so the stack and the
	// id array are sized here and Step's appends never grow them.
	r.stack = slices.Grow(r.stack[:0], g.AliveCount())
	r.ids = slices.Grow(r.ids[:0], 2*g.AliveCount())
	r.work = r.work[:0]
	r.folds.reset()
	r.Eliminated, r.maxDeg = 0, 2
	if rn {
		r.maxDeg = math.MaxInt
	}
	for u := 0; u < r.Graph.NumVertices(); u++ {
		if r.Graph.Alive(u) && r.Graph.Degree(u) <= r.maxDeg {
			r.work.push(r.Graph.Degree(u), u)
		}
	}
}

// Step eliminates the next queued vertex — R0, R1 or R2 by its degree,
// RN above degree 2 — and reports whether there was one. forceRN colors
// it by RN whatever its degree: the cheap way to finish a solve whose
// deadline has passed.
func (r *Reduction) Step(forceRN bool) bool {
	w := r.Graph
	// Every pass pops an entry and entries are only pushed after an
	// elimination, so the loop is bounded by the pushes made so far.
	for len(r.work) > 0 {
		d, u := r.work.pop()
		if !w.Alive(u) || w.Degree(u) != d {
			continue // stale: the vertex was eliminated or re-pushed at a lower degree
		}
		var rec record
		r.adj = w.AppendNeighbors(r.adj[:0], u)
		affected := r.adj
		switch {
		case forceRN || d > 2:
			rec = r.reduceRN(u, affected)
		case d == 0:
			rec = record{u: u, vec: w.VertexCost(u)}
			w.RemoveVertex(u)
		case d == 1:
			rec = r.reduceR1(u, affected)
		default:
			rec = r.reduceR2(u, affected)
		}
		r.stack = append(r.stack, rec)
		r.Eliminated++
		for _, v := range affected {
			if w.Degree(v) <= r.maxDeg {
				r.work.push(w.Degree(v), v)
			}
		}
		return true
	}
	return false
}

// worklist is a binary min-heap of (degree, vertex) pairs packed into
// one int64 key each, so the lexicographic (degree, id) minimum is the
// plain integer minimum. Entries are never updated in place: a vertex
// whose degree drops is pushed again and the stale entry is skipped on
// pop.
type worklist []int64

func (h *worklist) push(deg, u int) {
	*h = append(*h, int64(deg)<<32|int64(u))
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p] <= (*h)[i] {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *worklist) pop() (deg, u int) {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	*h = s[:last]
	s = s[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(s) && s[l] < s[min] {
			min = l
		}
		if r < len(s) && s[r] < s[min] {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return int(top >> 32), int(top & 0xffffffff)
}

// keep copies a record's neighbor list into r.ids, which Restart sized
// for the whole reduction, and returns the copy.
func (r *Reduction) keep(ns []int) []int {
	k := len(r.ids)
	r.ids = append(r.ids, ns...)
	return r.ids[k:len(r.ids):len(r.ids)]
}

// reduceR1 folds degree-1 vertex u into its single neighbor y:
// vec[y][j] += min_i (vec[u][i] + M_uy[i][j]).
func (r *Reduction) reduceR1(u int, ns []int) record {
	g := r.Graph
	y := ns[0]
	m := g.EdgeCost(u, y)
	vec := g.VertexCost(u)
	r.delta = slices.Grow(r.delta[:0], g.M())[:g.M()]
	for j := range r.delta {
		best := cost.Inf
		for i := range vec {
			if c := vec[i].Add(m.At(i, j)); c.Less(best) {
				best = c
			}
		}
		r.delta[j] = best
	}
	g.AddToVertexCost(y, r.delta)
	g.RemoveVertex(u)
	return record{u: u, vec: vec, nbrs: r.keep(ns), mats: [2]*cost.Matrix{m}}
}

// reduceR2 folds degree-2 vertex u into the edge between its neighbors
// (y, z): Δ[jy][jz] = min_i (vec[u][i] + M_uy[i][jy] + M_uz[i][jz]),
// added to the existing (y, z) matrix if there is one. The sum and its
// transpose are written straight into a pair cut from r's arena and
// installed as the edge; a sum of all zeros drops the edge instead.
func (r *Reduction) reduceR2(u int, ns []int) record {
	g := r.Graph
	y, z := ns[0], ns[1]
	my := g.EdgeCost(u, y)
	mz := g.EdgeCost(u, z)
	existing := g.EdgeCost(y, z)
	vec := g.VertexCost(u)
	m := g.M()
	yz, zy := r.folds.pair(m)
	for jy := 0; jy < m; jy++ {
		for jz := 0; jz < m; jz++ {
			best := cost.Inf
			for i := 0; i < m; i++ {
				if c := vec[i].Add(my.At(i, jy)).Add(mz.At(i, jz)); c.Less(best) {
					best = c
				}
			}
			if existing != nil {
				best = best.Add(existing.At(jy, jz))
			}
			yz.Set(jy, jz, best)
			zy.Set(jz, jy, best)
		}
	}
	g.RemoveVertex(u)
	if yz.IsZero() {
		g.RemoveEdge(y, z)
	} else {
		g.SetEdgePair(y, z, yz, zy)
	}
	return record{u: u, vec: vec, nbrs: r.keep(ns), mats: [2]*cost.Matrix{my, mz}}
}

// reduceRN heuristically colors vertex u with the minimizer of its own
// cost plus, per incident edge, the best achievable combined
// edge-plus-neighbor cost (LLVM's RN local minimum), then propagates the
// selected rows (the paper's transition T) to the neighbors. The sums
// are kept one per color and folded neighbor by neighbor, so every
// color adds the same terms in the same order as a per-color loop
// would: foldDiagonal for a diagonal edge, foldDense for any other.
func (r *Reduction) reduceRN(u int, ns []int) record {
	g := r.Graph
	r.acc = append(r.acc[:0], g.VertexCost(u)...)
	r.mats, r.diags = r.mats[:0], r.diags[:0]
	for _, v := range ns {
		mat, nvec := g.EdgeCost(u, v), g.VertexCost(v)
		d := mat.Diagonal()
		r.mats, r.diags = append(r.mats, mat), append(r.diags, d)
		if d != nil {
			foldDiagonal(r.acc, d, nvec)
		} else {
			foldDense(r.acc, mat, nvec)
		}
	}
	best, bestCost := -1, cost.Inf
	for i, c := range r.acc {
		if best == -1 || c.Less(bestCost) {
			best, bestCost = i, c
		}
	}
	// The transition T: row best of each incident matrix into the
	// neighbor's vector, a diagonal edge's row built in r.row: +0 off
	// the diagonal, as the matrix holds it.
	r.row = slices.Grow(r.row[:0], g.M())[:g.M()]
	clear(r.row)
	for k, v := range ns {
		if d := r.diags[k]; d != nil {
			r.row[best] = d[best]
			g.AddToVertexCost(v, r.row)
			r.row[best] = 0
		} else {
			g.AddToVertexCost(v, r.mats[k].Row(best))
		}
	}
	g.RemoveVertex(u)
	return record{u: u, chosen: best}
}

// foldDense adds one edge's RN local minima into acc: for every color
// i, acc[i] ⊕= min_j mat[i][j] ⊕ nvec[j], where the minimum is the
// first one under Less and Inf when no combination is finite.
func foldDense(acc cost.Vector, mat *cost.Matrix, nvec cost.Vector) {
	for i := range acc {
		local := cost.Inf
		for j, c := range mat.Row(i) {
			if combined := c.Add(nvec[j]); combined.Less(local) {
				local = combined
			}
		}
		acc[i] = acc[i].Add(local)
	}
}

// foldDiagonal is foldDense for a matrix whose off-diagonal entries are
// all +0 and whose diagonal is d, bit for bit, in O(m). Off the
// diagonal, color i's combinations are +0 ⊕ nvec[j], the same for
// every i, so one pass finds the first minimum of those (b1) and the
// first minimum of the rest (b2): the best off-diagonal combination of
// color i is b1's unless i is b1. It then meets i's own d[i] ⊕ nvec[i]
// as the scan would: the strictly smaller wins, an exact tie goes to
// the lower index, and an infinite combination is never taken.
func foldDiagonal(acc, d, nvec cost.Vector) {
	b1, b2 := -1, -1
	var v1, v2 cost.Cost
	for j, x := range nvec {
		switch e := cost.Cost(0).Add(x); {
		case e.IsInf():
		case b1 < 0 || e.Less(v1):
			b2, v2 = b1, v1
			b1, v1 = j, e
		case b2 < 0 || e.Less(v2):
			b2, v2 = j, e
		}
	}
	for i := range acc {
		o, ov := b1, v1
		if i == b1 {
			o, ov = b2, v2
		}
		local := cost.Inf
		switch own := d[i].Add(nvec[i]); {
		case own.IsInf():
			if o >= 0 {
				local = ov
			}
		case o < 0 || own.Less(ov) || (!ov.Less(own) && i < o):
			local = own
		default:
			local = ov
		}
		acc[i] = acc[i].Add(local)
	}
}

// Expand completes a selection of the reduced remainder into a full
// selection of the original graph, in reverse elimination order:
// every R0/R1/R2 vertex gets its optimal color given its (by then
// colored) former neighbors, every RN vertex the color chosen when it
// was eliminated. sel must assign every alive vertex of the reduced
// graph; eliminated entries may hold anything. It reports false if some
// eliminated vertex has no finite color (the problem is infeasible
// regardless of sel); that vertex gets color 0 and the selection is
// still complete.
func (r *Reduction) Expand(sel pbqp.Selection) (pbqp.Selection, bool) {
	out := sel.Clone()
	ok := true
	for i := len(r.stack) - 1; i >= 0; i-- {
		rec := &r.stack[i]
		if rec.vec == nil {
			out[rec.u] = rec.chosen
			continue
		}
		best, bestCost := -1, cost.Inf
		for c := range rec.vec {
			v := rec.vec[c]
			for k, nb := range rec.nbrs {
				v = v.Add(rec.mats[k].At(c, out[nb]))
			}
			if !v.IsInf() && (best == -1 || v.Less(bestCost)) {
				best, bestCost = c, v
			}
		}
		if best == -1 {
			best, ok = 0, false
		}
		out[rec.u] = best
	}
	return out, ok
}
