// Package liberty implements the liberty-based enumeration PBQP solver
// of Kim, Park and Moon (TACO 2020), the previous state of the art for
// ATE register allocation and the search-space baseline of the paper's
// Section V-B.
//
// Liberty is the number of finite entries in a vertex's cost vector: the
// number of registers the vertex can still take. The solver sorts the
// vertices by increasing initial liberty and fully enumerates the hard
// prefix (liberty ≤ Threshold) in that fixed order with chronological
// backtracking: at each hard vertex it tries every currently selectable
// color, and a vertex left with no selectable color triggers a
// backtrack. The easy remainder is approximated with the original
// Scholz–Eckstein reduction; if the approximation fails, the solver
// backtracks into the hard enumeration.
//
// The enumeration is deliberately chronological — conflicts are only
// discovered when the affected vertex comes up for coloring — matching
// the TACO description. That is why its explored-state count explodes
// combinatorially on hard instances (the paper measures tens of
// millions of states), which is precisely the search space the Deep-RL
// solver is shown to cut.
package liberty

import (
	"context"
	"sort"

	"pbqprl/internal/cost"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/solve"
	"pbqprl/internal/solve/scholz"
)

// DefaultThreshold is the liberty bound below which (inclusive) a vertex
// is enumerated rather than approximated, per the TACO 2020 paper.
const DefaultThreshold = 4

// Solver is the liberty-based enumeration solver.
type Solver struct {
	// Threshold is the maximum liberty of an enumerated (hard) vertex.
	// Zero means DefaultThreshold.
	Threshold int
	// MaxStates, when positive, aborts the enumeration after that many
	// explored states, reporting infeasible.
	MaxStates int64
}

// Name implements solve.Solver.
func (Solver) Name() string { return "liberty" }

// Solve implements solve.Solver. It returns the first feasible solution
// found (ATE problems only need any zero-cost solution); the easy-vertex
// remainder is approximated, so the cost is not guaranteed minimal.
func (s Solver) Solve(g *pbqp.Graph) solve.Result {
	return s.SolveCtx(context.Background(), g)
}

// SolveCtx implements solve.Solver. The enumeration stops at the
// first feasible solution, so there is no incumbent to salvage: on
// cancellation the result is infeasible with Truncated set.
func (s Solver) SolveCtx(ctx context.Context, g *pbqp.Graph) solve.Result {
	threshold := s.Threshold
	if threshold == 0 {
		threshold = DefaultThreshold
	}
	// Hard vertices (liberty ≤ threshold) come first; the stable sort
	// keeps program order within each class. Real test-pattern programs
	// concentrate their register constraints in contiguous phases, so
	// preserving temporal order inside the hard prefix keeps conflicts
	// chronologically local — sorting strictly by liberty value scatters
	// related vregs across the enumeration order and makes the
	// backtracking thrash.
	vs := g.Vertices()
	sort.SliceStable(vs, func(i, j int) bool {
		return (g.Liberty(vs[i]) <= threshold) && (g.Liberty(vs[j]) > threshold)
	})
	numHard := 0
	for _, u := range vs {
		if g.Liberty(u) <= threshold {
			numHard++
		}
	}
	e := &enum{
		ctx:      ctx,
		g:        g.Permute(vs),
		numHard:  numHard,
		sel:      make([]int, len(vs)),
		maxState: s.MaxStates,
	}
	e.stopped = ctx.Err() != nil
	ok := !e.stopped && e.run(0)
	res := solve.Result{Cost: cost.Inf, Truncated: e.stopped, States: e.states}
	if ok {
		res.Feasible = true
		res.Selection = make(pbqp.Selection, g.NumVertices())
		for i, u := range vs {
			res.Selection[u] = e.sel[i]
		}
		// Equation 1 in the graph's canonical order, not summed along the
		// search, so that Cost == TotalCost(Selection) to the last bit
		res.Cost = g.TotalCost(res.Selection)
	}
	return res
}

type enum struct {
	ctx      context.Context
	g        *pbqp.Graph // renumbered: hard prefix [0, numHard), easy suffix
	numHard  int
	sel      []int
	states   int64
	maxState int64
	stopped  bool // ctx fired; unwind without further enumeration
}

// run enumerates colors for vertex depth in the fixed order. Vertex
// cost vectors of later vertices are mutated in place during descent
// and restored on backtrack.
//
// Once the hard prefix is fully colored, the easy remainder is first
// approximated with the Scholz–Eckstein reduction (the TACO fast path);
// if the approximation fails, the enumeration simply continues over the
// easy vertices in the same chronological order — the backtracking
// search is complete, it just prefers to stop enumerating as soon as
// the approximation succeeds. It reports success, with the coloring
// left in e.sel.
func (e *enum) run(depth int) bool {
	if depth == e.g.NumVertices() {
		return true
	}
	if depth >= e.numHard && e.solveEasyRemainder(depth) {
		return true
	}
	// the approximation failed: keep enumerating chronologically
	if e.stopped || (e.maxState > 0 && e.states >= e.maxState) {
		return false
	}
	vec := e.g.VertexCost(depth).Clone()
	later := laterNeighbors(e.g, depth)
	for c := 0; c < e.g.M(); c++ {
		if vec[c].IsInf() {
			continue
		}
		e.states++
		if e.stopped || (e.maxState > 0 && e.states > e.maxState) {
			break
		}
		if e.states%solve.CheckInterval == 0 && e.ctx.Err() != nil {
			e.stopped = true
			break
		}
		saved := propagate(e.g, depth, c, later)
		e.sel[depth] = c
		ok := e.run(depth + 1)
		restore(e.g, saved)
		if ok {
			return true
		}
	}
	return false
}

// solveEasyRemainder builds the induced subgraph over the uncolored
// suffix [from, n) with its propagated cost vectors and approximates it
// with the Scholz–Eckstein solver.
func (e *enum) solveEasyRemainder(from int) bool {
	n := e.g.NumVertices()
	if from == n {
		return true
	}
	// Fast path with identical semantics: a vertex whose propagated
	// vector is all-infinite makes the reduction infeasible no matter
	// what, so skip building and solving the subproblem.
	for v := from; v < n; v++ {
		if e.g.VertexCost(v).AllInf() {
			e.states++
			return false
		}
	}
	suffix := make([]int, n-from)
	for i := range suffix {
		suffix[i] = from + i
	}
	res := (scholz.Solver{}).SolveCtx(e.ctx, e.g.Induced(suffix))
	e.states += res.States
	if res.Truncated {
		// Deadline hit inside the approximation: a feasible coloring is
		// still a valid answer, but either way stop enumerating.
		e.stopped = true
	}
	if !res.Feasible {
		return false
	}
	for v := from; v < n; v++ {
		e.sel[v] = res.Selection[v-from]
	}
	return true
}

// laterNeighbors returns u's neighbors with a larger index (the ones
// not yet colored in the fixed enumeration order).
func laterNeighbors(g *pbqp.Graph, u int) []int {
	var later []int
	for _, v := range g.Neighbors(u) {
		if v > u {
			later = append(later, v)
		}
	}
	return later
}

// change records one overwritten cost-vector entry so backtracking can
// restore it exactly (infinity saturation is not subtractable).
type change struct {
	v, i int
	old  cost.Cost
}

// propagate adds row c of each (u, v) edge matrix into the later
// neighbors' vectors, recording only the entries that actually change
// (adding an exact zero never does — and in the ATE zero/infinity
// regime almost every row entry is zero, so the undo log stays tiny).
func propagate(g *pbqp.Graph, u, c int, later []int) []change {
	var undo []change
	for _, v := range later {
		row := g.EdgeCost(u, v).Row(c)
		vec := g.VertexCost(v)
		for i, rc := range row {
			if rc.IsZero() {
				continue
			}
			undo = append(undo, change{v: v, i: i, old: vec[i]})
			vec[i] = vec[i].Add(rc)
		}
	}
	return undo
}

// restore undoes propagate, newest change first.
func restore(g *pbqp.Graph, undo []change) {
	for i := len(undo) - 1; i >= 0; i-- {
		ch := undo[i]
		g.VertexCost(ch.v)[ch.i] = ch.old
	}
}
