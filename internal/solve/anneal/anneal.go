// Package anneal implements a simulated-annealing PBQP solver: a
// classical stochastic-local-search baseline that complements the
// deterministic reduction and enumeration solvers. Starting from a
// greedy finite assignment (or a random one), it proposes single-vertex
// recolorings and accepts them with the Metropolis criterion under a
// geometric cooling schedule. Infinite-cost assignments are handled by
// counting constraint violations, so the search can traverse infeasible
// regions on its way to feasible ones — useful in the zero/infinity
// ATE regime, where it doubles as a repair-style heuristic.
package anneal

import (
	"context"
	"math"
	"math/rand"

	"pbqprl/internal/cost"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/solve"
)

const (
	// t0 and t1 are the initial and final temperatures of the
	// geometric schedule.
	t0, t1 = 2.0, 0.01
	// violationPenalty converts one infinite selected entry into a
	// finite energy term.
	violationPenalty = 1000.0
)

// Solver is a simulated-annealing PBQP solver.
type Solver struct {
	// Steps is the number of proposals (default 200 × vertices).
	Steps int
	// Restarts is the number of independent annealing runs; the best
	// result wins (default 4). Restarts after a feasible run keep
	// searching for lower cost; infeasible runs always retry.
	Restarts int
	// Seed drives the proposal stream.
	Seed int64
}

// Name implements solve.Solver.
func (Solver) Name() string { return "anneal" }

// totalEnergy is the annealing objective: finite cost plus a penalty per
// selected infinite entry.
func totalEnergy(g *pbqp.Graph, sel pbqp.Selection) (float64, int) {
	e := 0.0
	violations := 0
	for _, u := range g.Vertices() {
		c := g.VertexCost(u)[sel[u]]
		if c.IsInf() {
			violations++
			e += violationPenalty
		} else {
			e += float64(c)
		}
	}
	for _, edge := range g.Edges() {
		c := edge.M.At(sel[edge.U], sel[edge.V])
		if c.IsInf() {
			violations++
			e += violationPenalty
		} else {
			e += float64(c)
		}
	}
	return e, violations
}

// Solve implements solve.Solver. It runs Restarts independent
// annealing passes and keeps the cheapest result.
func (s Solver) Solve(g *pbqp.Graph) solve.Result {
	return s.SolveCtx(context.Background(), g)
}

// SolveCtx implements solve.Solver. Annealing is inherently
// anytime: on cancellation the lowest-energy assignment seen so far in
// the interrupted run still competes with completed restarts, so the
// result carries the best feasible selection found overall, marked
// Truncated.
func (s Solver) SolveCtx(ctx context.Context, g *pbqp.Graph) solve.Result {
	if s.Restarts == 0 {
		s.Restarts = 4
	}
	best := solve.Result{Cost: cost.Inf}
	var totalStates int64
	truncated := false
	for r := 0; r < s.Restarts; r++ {
		if ctx.Err() != nil {
			truncated = true
			break
		}
		// the first run starts from the greedy assignment, later
		// restarts from random ones (diversification)
		res := s.solveOnce(ctx, g, s.Seed+int64(r)*7919, r > 0)
		totalStates += res.States
		truncated = truncated || res.Truncated
		if !best.Feasible || (res.Feasible && res.Cost.Less(best.Cost)) {
			best = res
		}
	}
	best.States = totalStates
	best.Truncated = truncated
	return best
}

// solveOnce is one annealing run.
func (s Solver) solveOnce(ctx context.Context, g *pbqp.Graph, seed int64, randomInit bool) solve.Result {
	vs := g.Vertices()
	if len(vs) == 0 {
		return solve.Result{Selection: pbqp.Selection{}, Feasible: true}
	}
	if s.Steps == 0 {
		s.Steps = 200 * len(vs)
	}
	rng := rand.New(rand.NewSource(seed))
	m := g.M()

	// start: per vertex the cheapest finite color, or (for restarts)
	// a random finite one
	sel := make(pbqp.Selection, g.NumVertices())
	for _, u := range vs {
		vec := g.VertexCost(u)
		if randomInit {
			finite := make([]int, 0, m)
			for c := range vec {
				if !vec[c].IsInf() {
					finite = append(finite, c)
				}
			}
			if len(finite) > 0 {
				sel[u] = finite[rng.Intn(len(finite))]
				continue
			}
		}
		if _, idx := vec.Min(); idx >= 0 {
			sel[u] = idx
		} else {
			sel[u] = rng.Intn(m)
		}
	}
	energy, _ := totalEnergy(g, sel)
	best := sel.Clone()
	bestEnergy := energy
	var states int64

	cooling := math.Pow(t1/t0, 1/float64(s.Steps))
	temp := t0
	truncated := false
	for step := 0; step < s.Steps; step++ {
		states++
		if states%solve.CheckInterval == 0 && ctx.Err() != nil {
			truncated = true
			break
		}
		u := vs[rng.Intn(len(vs))]
		old := sel[u]
		next := rng.Intn(m)
		if next == old {
			continue
		}
		delta := moveDelta(g, sel, u, next)
		if delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
			sel[u] = next
			energy += delta
			if energy < bestEnergy {
				bestEnergy = energy
				copy(best, sel)
			}
		}
		temp *= cooling
	}

	total := g.TotalCost(best)
	return solve.Result{
		Selection: best,
		Cost:      total,
		Feasible:  !total.IsInf(),
		Truncated: truncated,
		States:    states,
	}
}

// moveDelta computes the energy change of recoloring u to next, looking
// only at u's vector entry and incident edges.
func moveDelta(g *pbqp.Graph, sel pbqp.Selection, u, next int) float64 {
	old := sel[u]
	e := term(g.VertexCost(u)[next]) - term(g.VertexCost(u)[old])
	for _, v := range g.Neighbors(u) {
		m := g.EdgeCost(u, v)
		e += term(m.At(next, sel[v])) - term(m.At(old, sel[v]))
	}
	return e
}

func term(c cost.Cost) float64 {
	if c.IsInf() {
		return violationPenalty
	}
	return float64(c)
}
