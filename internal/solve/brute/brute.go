// Package brute implements an exact branch-and-bound PBQP solver.
//
// It enumerates colorings in vertex order, pruning branches whose partial
// cost already reaches infinity or the best finite cost found so far. It
// is exponential and intended as a test oracle and for small problems.
package brute

import (
	"context"

	"pbqprl/internal/cost"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/solve"
)

// Solver is an exact branch-and-bound PBQP solver.
type Solver struct {
	// MaxStates, when positive, aborts the search after that many
	// explored states; the best solution found so far is returned.
	MaxStates int64
}

// Name implements solve.Solver.
func (Solver) Name() string { return "brute" }

// Solve implements solve.Solver. The returned cost is globally optimal
// (unless MaxStates truncated the search). When the graph contains
// negative costs (coalescing hints), bound pruning is disabled — a
// partial sum can still decrease — and only infinite branches are cut.
func (s Solver) Solve(g *pbqp.Graph) solve.Result {
	return s.SolveCtx(context.Background(), g)
}

// SolveCtx implements solve.Solver. The context is polled every
// solve.CheckInterval explored states; on cancellation the search stops
// and the best (incumbent) selection found so far is returned with
// Truncated set.
func (s Solver) SolveCtx(ctx context.Context, g *pbqp.Graph) solve.Result {
	vs := g.Vertices()
	st := &search{
		ctx:      ctx,
		g:        g,
		vs:       vs,
		sel:      make([]int, len(vs)),
		best:     cost.Inf,
		maxState: s.MaxStates,
		prune:    !hasNegativeCosts(g),
	}
	st.stopped = ctx.Err() != nil
	if !st.stopped {
		st.run(0, 0)
	}
	res := solve.Result{
		Cost:      st.best,
		Feasible:  !st.best.IsInf(),
		Truncated: st.stopped,
		States:    st.states,
	}
	if res.Feasible {
		res.Selection = make(pbqp.Selection, g.NumVertices())
		for i, u := range vs {
			res.Selection[u] = st.bestSel[i]
		}
		// st.best was summed in search order; report Equation 1 in the
		// graph's canonical order so that Cost == TotalCost(Selection)
		// to the last bit on non-integer costs too
		res.Cost = g.TotalCost(res.Selection)
	}
	return res
}

type search struct {
	ctx      context.Context
	g        *pbqp.Graph
	vs       []int
	sel      []int // color of vs[i] for i < depth
	best     cost.Cost
	bestSel  []int
	states   int64
	maxState int64
	prune    bool
	stopped  bool // ctx fired; unwind keeping the incumbent
}

// hasNegativeCosts reports whether any vertex or edge cost is negative.
func hasNegativeCosts(g *pbqp.Graph) bool {
	for _, u := range g.Vertices() {
		for _, c := range g.VertexCost(u) {
			if c.Less(0) {
				return true
			}
		}
	}
	for _, e := range g.Edges() {
		for _, c := range e.M.Data {
			if c.Less(0) {
				return true
			}
		}
	}
	return false
}

// worse reports whether partial can be pruned against the incumbent.
func (st *search) worse(partial cost.Cost) bool {
	if partial.IsInf() {
		return true
	}
	return st.prune && !partial.Less(st.best)
}

func (st *search) run(depth int, acc cost.Cost) {
	if st.stopped || (st.maxState > 0 && st.states >= st.maxState) {
		return
	}
	if depth == len(st.vs) {
		if acc.Less(st.best) {
			st.best = acc
			st.bestSel = append(st.bestSel[:0], st.sel...)
		}
		return
	}
	u := st.vs[depth]
	vec := st.g.VertexCost(u)
	for c := 0; c < st.g.M(); c++ {
		if st.stopped || (st.maxState > 0 && st.states >= st.maxState) {
			return
		}
		st.states++
		if st.states%solve.CheckInterval == 0 && st.ctx.Err() != nil {
			st.stopped = true
			return
		}
		partial := acc.Add(vec[c])
		if st.worse(partial) {
			continue
		}
		// add edge costs to already-colored neighbors
		for j := 0; j < depth; j++ {
			if m := st.g.EdgeCost(u, st.vs[j]); m != nil {
				partial = partial.Add(m.At(c, st.sel[j]))
				if st.worse(partial) {
					break
				}
			}
		}
		if st.worse(partial) {
			continue
		}
		st.sel[depth] = c
		st.run(depth+1, partial)
	}
}
