// Package liberty implements the liberty-based enumeration PBQP solver
// of Kim, Park and Moon (TACO 2020), the previous state of the art for
// ATE register allocation and the search-space baseline of the paper's
// Section V-B.
//
// Liberty is the number of finite entries in a vertex's cost vector: the
// number of registers the vertex can still take. The solver puts the
// hard vertices (initial liberty ≤ Threshold) first, each class in
// program order, and fully enumerates the hard prefix in that fixed
// order with chronological backtracking: at each hard vertex it tries
// every currently selectable color, and a vertex left with no
// selectable color triggers a backtrack. The easy remainder is
// approximated with the original Scholz–Eckstein reduction; if the
// approximation fails, the enumeration goes on into the easy vertices
// in the same order.
//
// The enumeration walks a game.State in that order: Play is the
// paper's transition T (Section III-C), the same reversible one the
// Deep-RL search plays, and Undo takes it back exactly.
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
	"pbqprl/internal/game"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/solve"
	"pbqprl/internal/solve/scholz"
)

// Threshold is the liberty bound below which (inclusive) a vertex is
// enumerated rather than approximated, per the TACO 2020 paper.
const Threshold = 4

// Solver is the liberty-based enumeration solver.
type Solver struct {
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
//
// Stats splits States: "hard_states" counts the colors tried at hard
// turns, and "scholz_states" the states of the "scholz_calls"
// approximations of the easy remainder, "scholz_failed" of which found
// no feasible coloring. The rest are colors tried at easy turns and
// dead-end checks.
func (s Solver) SolveCtx(ctx context.Context, g *pbqp.Graph) solve.Result {
	// Hard vertices (liberty ≤ Threshold) come first; the stable sort
	// keeps program order within each class. Real test-pattern programs
	// concentrate their register constraints in contiguous phases, so
	// preserving temporal order inside the hard prefix keeps conflicts
	// chronologically local — sorting strictly by liberty value scatters
	// related vregs across the enumeration order and makes the
	// backtracking thrash.
	vs := g.Vertices()
	sort.SliceStable(vs, func(i, j int) bool {
		return (g.Liberty(vs[i]) <= Threshold) && (g.Liberty(vs[j]) > Threshold)
	})
	numHard := 0
	for _, u := range vs {
		if g.Liberty(u) <= Threshold {
			numHard++
		}
	}
	e := &enum{
		ctx:      ctx,
		st:       game.New(g, vs),
		numHard:  numHard,
		sel:      make([]int, len(vs)),
		maxState: s.MaxStates,
		stats:    map[string]float64{"hard_states": 0, "scholz_calls": 0, "scholz_failed": 0, "scholz_states": 0},
	}
	e.stopped = ctx.Err() != nil
	ok := !e.stopped && e.run()
	res := solve.Result{Cost: cost.Inf, Truncated: e.stopped, States: e.states, Stats: e.stats}
	if ok {
		sel := make(pbqp.Selection, g.NumVertices())
		for i, u := range vs {
			sel[u] = e.sel[i]
		}
		// Equation 1 in the graph's canonical order, not summed along the
		// search, so that Cost == TotalCost(Selection) to the last bit.
		// Finite entries can still sum to ∞, which is no feasible cost.
		if c := g.TotalCost(sel); !c.IsInf() {
			res.Selection, res.Cost, res.Feasible = sel, c, true
		}
	}
	return res
}

type enum struct {
	ctx      context.Context
	st       *game.State // turns: hard prefix [0, numHard), easy suffix
	numHard  int
	sel      []int // by turn, filled on the way out of a success
	states   int64
	maxState int64
	stopped  bool // ctx fired; unwind without further enumeration
	stats    map[string]float64
}

// run enumerates colors for the game's next turn in the fixed order;
// Play propagates the color into the later neighbors' vectors and Undo
// takes it back.
//
// Once the hard prefix is fully colored, the easy remainder is first
// approximated with the Scholz–Eckstein reduction (the TACO fast path);
// if the approximation fails, the enumeration simply continues over the
// easy vertices in the same chronological order — the backtracking
// search is complete, it just prefers to stop enumerating as soon as
// the approximation succeeds. It reports success, with the coloring
// left in e.sel.
func (e *enum) run() bool {
	if e.st.Done() {
		// finite entries can sum to ∞: then try the next color
		return !e.st.Acc().IsInf()
	}
	turn := e.st.Turn()
	if turn >= e.numHard && e.solveEasyRemainder() {
		return true
	}
	// the approximation failed: keep enumerating chronologically
	if e.stopped || (e.maxState > 0 && e.states >= e.maxState) {
		return false
	}
	for c := 0; c < e.st.M(); c++ {
		if !e.st.Legal(c) {
			continue
		}
		e.states++
		if turn < e.numHard {
			e.stats["hard_states"]++
		}
		if e.stopped || (e.maxState > 0 && e.states > e.maxState) {
			break
		}
		if e.states%solve.CheckInterval == 0 && e.ctx.Err() != nil {
			e.stopped = true
			break
		}
		e.st.Play(c)
		ok := e.run()
		e.st.Undo()
		if ok {
			e.sel[turn] = c
			return true
		}
	}
	return false
}

// solveEasyRemainder approximates the uncolored suffix, with its
// propagated cost vectors, with the Scholz–Eckstein solver.
func (e *enum) solveEasyRemainder() bool {
	// Fast path with identical semantics: a vertex whose propagated
	// vector is all-infinite makes the reduction infeasible no matter
	// what, so skip building and solving the subproblem.
	if e.st.DeadEnd() {
		e.states++
		return false
	}
	res := (scholz.Solver{}).SolveCtx(e.ctx, e.st.Remainder())
	e.states += res.States
	e.stats["scholz_calls"]++
	e.stats["scholz_states"] += float64(res.States)
	if res.Truncated {
		// Deadline hit inside the approximation: a feasible coloring is
		// still a valid answer, but either way stop enumerating.
		e.stopped = true
	}
	if !res.Feasible || e.st.Acc().Add(res.Cost).IsInf() {
		e.stats["scholz_failed"]++
		return false
	}
	copy(e.sel[e.st.Turn():], res.Selection)
	return true
}
