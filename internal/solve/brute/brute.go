// Package brute implements an exact branch-and-bound PBQP solver. It
// plays the coloring game of package game in increasing-liberty order,
// trying each legal color of a turn with Play and Undo, and prunes a
// child whose bound, valid whatever the signs of the costs (coalescing
// hints included), reaches the best cost found so far. It is
// exponential and intended as a test oracle and for small problems.
package brute

import (
	"context"

	"pbqprl/internal/cost"
	"pbqprl/internal/game"
	"pbqprl/internal/gcn"
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
// (unless MaxStates truncated the search).
func (s Solver) Solve(g *pbqp.Graph) solve.Result {
	return s.SolveCtx(context.Background(), g)
}

// SolveCtx implements solve.Solver. The context is polled every
// solve.CheckInterval explored states; on cancellation the search stops
// and the best (incumbent) selection found so far is returned with
// Truncated set.
func (s Solver) SolveCtx(ctx context.Context, g *pbqp.Graph) solve.Result {
	order := game.MakeOrder(g, game.OrderIncLiberty, nil)
	sr := &search{
		ctx:      ctx,
		st:       game.New(g, order),
		h:        laterRowMins(g, order),
		n:        g.NumVertices(),
		best:     cost.Inf,
		maxState: s.MaxStates,
	}
	sr.stopped = ctx.Err() != nil
	if !sr.stopped {
		sr.run()
	}
	res := solve.Result{
		Cost:      sr.best,
		Feasible:  !sr.best.IsInf(),
		Truncated: sr.stopped,
		States:    sr.states,
	}
	if res.Feasible {
		// sr.best was summed in play order; report Equation 1 in the
		// graph's canonical order so that Cost == TotalCost(Selection)
		// to the last bit on non-integer costs too
		res.Selection, res.Cost = sr.bestSel, g.TotalCost(sr.bestSel)
	}
	return res
}

type search struct {
	ctx      context.Context
	st       *game.State
	h        []cost.Vector // laterRowMins, indexed by turn
	n        int           // the graph's vertex count, dead ones included
	best     cost.Cost
	bestSel  pbqp.Selection
	states   int64
	maxState int64
	stopped  bool // ctx fired; unwind keeping the incumbent
}

// laterRowMins returns h, indexed by turn: h[t][a] sums, over the
// neighbors of turn t that are colored after it, the least entry of row
// a of their edge matrix, the least those edges can add once t plays a.
func laterRowMins(g *pbqp.Graph, order []int) []cost.Vector {
	turn := make([]int, g.NumVertices())
	for t, u := range order {
		turn[u] = t
	}
	h := make([]cost.Vector, len(order))
	for t, u := range order {
		h[t] = cost.NewVector(g.M())
		for _, w := range g.Neighbors(u) {
			if turn[w] < t {
				continue
			}
			mat := g.EdgeCost(u, w)
			for a := range h[t] {
				least, _ := mat.Row(a).Min()
				h[t][a] = h[t][a].Add(least)
			}
		}
	}
	return h
}

// bound returns Acc plus, for each uncolored turn t, the least
// vec_t[a] + h[t][a] over the colors a. Every edge between two
// uncolored turns is counted once, at its earlier end, by a row minimum
// no completion can undercut, so no completion of the position costs
// less, negative entries included.
func (s *search) bound() cost.Cost {
	// typed through gcn, so that this package imports it: without the
	// import, go1.24 calls View.N and View.Vec here instead of inlining
	var v gcn.View = s.st.View()
	t, lb := s.st.Turn(), s.st.Acc()
	for i := 0; i < v.N() && !lb.IsInf(); i++ {
		least := cost.Inf
		for a, c := range v.Vec(i) {
			if c = c.Add(s.h[t+i][a]); c.Less(least) {
				least = c
			}
		}
		lb = lb.Add(least)
	}
	return lb
}

// run tries every color of the next turn; a child is entered only while
// its bound is below the incumbent, so a finished game improves on it.
func (s *search) run() {
	if s.st.Done() {
		s.best, s.bestSel = s.st.Acc(), s.st.Selection(s.n)
		return
	}
	for a := 0; a < s.st.M(); a++ {
		if s.stopped || (s.maxState > 0 && s.states >= s.maxState) {
			return
		}
		s.states++
		if s.states%solve.CheckInterval == 0 && s.ctx.Err() != nil {
			s.stopped = true
			return
		}
		if !s.st.Legal(a) {
			continue
		}
		s.st.Play(a)
		if s.bound().Less(s.best) {
			s.run()
		}
		s.st.Undo()
	}
}
