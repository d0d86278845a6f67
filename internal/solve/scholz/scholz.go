// Package scholz implements the original PBQP solver of Scholz and
// Eckstein (LCTES 2002), as used by LLVM's PBQP register allocator.
//
// The solver repeatedly removes the vertex of minimum degree:
//
//   - degree 0 (R0): the vertex is independent; its color is the local
//     minimum, chosen during back-propagation.
//   - degree 1 (R1): the vertex's vector and edge matrix are folded into
//     its neighbor's vector; the reduction is exact.
//   - degree 2 (R2): the vertex is folded into a (possibly new) edge
//     between its two neighbors; the reduction is exact.
//   - degree ≥ 3 (RN): a heuristic, possibly sub-optimal color is chosen
//     immediately — the minimizer of the vertex cost plus each incident
//     edge's row minimum — and the selected rows are propagated to the
//     neighbors.
//
// After the graph is empty, colors are assigned in reverse removal order.
// For graphs whose vertices are mostly high degree with zero/infinity
// costs (ATE programs), RN frequently picks a row that later turns out
// infeasible, which is why the paper reports this solver failing for
// 9 of 10 ATE programs.
//
// The reductions, the (degree, id) elimination order and the
// back-propagation are internal/reduce's; this package is that engine
// run with RN enabled until the graph is empty. A solve restarts a
// reduction workspace taken from a pool on its input and puts it back
// once the selection is expanded, so solves of many small graphs (every
// block decomp hands its inner solver) allocate per workspace, not per
// elimination. Solver is safe for concurrent use.
package scholz

import (
	"context"
	"sync"

	"pbqprl/internal/pbqp"
	"pbqprl/internal/reduce"
	"pbqprl/internal/solve"
)

// Solver is the Scholz–Eckstein reduction solver.
type Solver struct{}

// workspaces holds the reductions no solve is using. A workspace goes
// back only after Expand, when nothing reads its graph, the matrices
// R2 installed in it or its records any more, which is what
// reduce.Reduction.Restart requires of the next solve that takes it.
var workspaces = sync.Pool{New: func() any { return new(reduce.Reduction) }}

// Name implements solve.Solver.
func (Solver) Name() string { return "scholz" }

// Solve implements solve.Solver.
func (s Solver) Solve(g *pbqp.Graph) solve.Result {
	return s.SolveCtx(context.Background(), g)
}

// SolveCtx implements solve.Solver. The reduction is polynomial
// and normally finishes well inside any realistic deadline; when the
// context fires mid-reduction the solver degrades gracefully instead of
// stopping cold: every remaining vertex is colored immediately with the
// cheap RN local-minimum rule (no more exact R1/R2 folds), so a
// complete — possibly worse — selection is still produced and marked
// Truncated.
func (Solver) SolveCtx(ctx context.Context, g *pbqp.Graph) solve.Result {
	red := workspaces.Get().(*reduce.Reduction)
	red.Restart(g, true)
	var states int64
	truncated := ctx.Err() != nil
	for red.Graph.AliveCount() > 0 {
		states++
		if !truncated && states%solve.CheckInterval == 0 && ctx.Err() != nil {
			truncated = true
		}
		red.Step(truncated)
	}
	// Every alive vertex was eliminated, so Expand assigns them all; dead
	// vertices keep color 0. An infeasible selection is still complete.
	sel, feasible := red.Expand(make(pbqp.Selection, g.NumVertices()))
	workspaces.Put(red)
	total := g.TotalCost(sel)
	return solve.Result{
		Selection: sel,
		Cost:      total,
		Feasible:  feasible && !total.IsInf(),
		Truncated: truncated,
		States:    states,
	}
}
