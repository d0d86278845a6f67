// Package rl implements the paper's Deep-RL PBQP solver: MCTS-guided
// coloring (inference runs of Section IV-A) with the optional
// backtracking and liberty-based coloring orders of Section IV-E.
//
// Without backtracking the solver performs a one-way pass: k MCTS
// simulations per vertex, then the visit-count-maximizing color. With
// backtracking, a dead end cancels the most recent coloring action,
// masks it in the game tree, re-invokes MCTS at the parent state ("more
// thinking time"), and tries the next most promising color —
// depth-first until a solution is found or the node budget is spent.
package rl

import (
	"context"
	"math/rand"

	"pbqprl/internal/cost"
	"pbqprl/internal/game"
	"pbqprl/internal/mcts"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/solve"
	"pbqprl/internal/tensor"
)

// Config tunes an inference run.
type Config struct {
	// K is the number of MCTS simulations per coloring action
	// (k_infer in the paper).
	K int
	// Order is the coloring order (the paper recommends
	// game.OrderDecLiberty for ATE problems).
	Order game.Order
	// Backtrack enables dead-end backtracking.
	Backtrack bool
	// ReinvokeMCTS controls whether MCTS runs again at the parent of a
	// dead end before the next color is tried. The paper's default is
	// true; false reproduces the Section V-B ablation that simply
	// takes the next highest-probability action.
	ReinvokeMCTS bool
	// MaxNodes aborts the search once the game tree has generated
	// this many nodes (0 = unlimited).
	MaxNodes int64
	// Seed drives the random coloring order.
	Seed int64
	// Baseline, when HasBaseline is set, is the best-known cost the
	// terminal reward compares against; otherwise any finite-cost
	// coloring counts as a win (the ATE zero/infinity regime).
	Baseline    cost.Cost
	HasBaseline bool
	// Graded switches terminal rewards from ternary win/tie/loss to
	// the margin against the baseline — the right setting for
	// minimization inference (see game.State.SetGraded).
	Graded bool
	// HeuristicValue uses the lower-bound heuristic instead of the
	// V-Net at MCTS leaves (see mcts.Config.HeuristicValue).
	HeuristicValue bool
}

// Stats reports search effort beyond the solve.Result fields.
type Stats struct {
	// Nodes is the total number of game-tree nodes generated
	// (Figure 6's metric); it equals Result.States.
	Nodes int64
	// Backtracks counts canceled coloring actions.
	Backtracks int64
	// DeadEnds counts dead-end states reached.
	DeadEnds int64
}

// Solver colors PBQP graphs with a trained network and MCTS.
type Solver struct {
	Net mcts.Evaluator
	Cfg Config
}

// Name implements solve.Solver.
func (s *Solver) Name() string {
	if s.Cfg.Backtrack {
		return "deep-rl+backtrack"
	}
	return "deep-rl"
}

// Solve implements solve.Solver.
func (s *Solver) Solve(g *pbqp.Graph) solve.Result {
	res, _ := s.SolveStats(g)
	return res
}

// SolveCtx implements solve.Solver. The context is polled before
// every MCTS simulation and every coloring action, so cancellation
// lands within one simulation's latency. The solver commits to a
// coloring only when it reaches a complete feasible one, so there is no
// partial incumbent: on cancellation the result is infeasible with
// Truncated set.
func (s *Solver) SolveCtx(ctx context.Context, g *pbqp.Graph) solve.Result {
	res, _ := s.SolveStatsCtx(ctx, g)
	return res
}

// SolveStats solves g and additionally reports search statistics.
func (s *Solver) SolveStats(g *pbqp.Graph) (solve.Result, Stats) {
	return s.SolveStatsCtx(context.Background(), g)
}

// SolveStatsCtx is SolveStats under a context (see SolveCtx).
func (s *Solver) SolveStatsCtx(ctx context.Context, g *pbqp.Graph) (solve.Result, Stats) {
	cfg := s.Cfg
	if cfg.K <= 0 {
		cfg.K = 50
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := game.MakeOrder(g, cfg.Order, rng)
	st := game.New(g, order)
	if cfg.HasBaseline {
		st.SetBaseline(cfg.Baseline)
	}
	st.SetGraded(cfg.Graded)
	// Backtracking re-roots at the parent after a dead end (Back), so
	// the parent chain must stay alive; one-way runs let Advance free it.
	tree := mcts.New(s.Net, g.M(), mcts.Config{HeuristicValue: cfg.HeuristicValue, RetainParents: cfg.Backtrack})
	run := &runner{ctx: ctx, cfg: cfg, st: st, tree: tree}

	var ok bool
	if cfg.Backtrack {
		ok = run.backtrack()
	} else {
		ok = run.oneWay()
	}
	run.stats.Nodes = tree.Nodes()
	res := solve.Result{Cost: cost.Inf, Truncated: run.truncated, States: tree.Nodes()}
	if ok {
		res.Feasible = true
		res.Selection = st.Selection(g.NumVertices())
		// st.Acc() folds edge rows in play order; report Equation 1 in
		// the graph's canonical order so that Cost == TotalCost(Selection)
		// to the last bit on non-integer costs too
		res.Cost = g.TotalCost(res.Selection)
	}
	return res, run.stats
}

type runner struct {
	ctx       context.Context
	cfg       Config
	st        *game.State
	tree      *mcts.Tree
	stats     Stats
	truncated bool
}

func (r *runner) overBudget() bool {
	return r.cfg.MaxNodes > 0 && r.tree.Nodes() >= r.cfg.MaxNodes
}

// cancelled polls the context and latches the truncation flag.
func (r *runner) cancelled() bool {
	if r.truncated {
		return true
	}
	if r.ctx.Err() != nil {
		r.truncated = true
	}
	return r.truncated
}

// oneWay is the inference run without backtracking: a dead end is a
// failure.
func (r *runner) oneWay() bool {
	for !r.st.Done() {
		if r.st.DeadEnd() {
			r.stats.DeadEnds++
			return false
		}
		if r.overBudget() || r.cancelled() {
			return false
		}
		r.tree.RunCtx(r.ctx, r.st, r.cfg.K)
		if r.cancelled() {
			return false
		}
		a := Argmax(r.tree.Policy())
		if a < 0 {
			return false
		}
		r.st.Play(a)
		r.tree.Advance(a)
	}
	return true
}

// backtrack is the depth-first inference run of Section IV-E.
func (r *runner) backtrack() bool {
	if r.st.Done() {
		return true
	}
	if r.st.DeadEnd() {
		r.stats.DeadEnds++
		return false
	}
	first := true
	for {
		if r.overBudget() || r.cancelled() {
			return false
		}
		if first || r.cfg.ReinvokeMCTS {
			r.tree.RunCtx(r.ctx, r.st, r.cfg.K)
			if r.cancelled() {
				return false
			}
		}
		first = false
		if !r.tree.RootHasMove() {
			return false
		}
		a := Argmax(r.tree.Policy())
		if a < 0 {
			return false
		}
		r.st.Play(a)
		r.tree.Advance(a)
		if r.backtrack() {
			return true
		}
		r.st.Undo()
		r.tree.Back()
		r.tree.DisableRootAction(a)
		r.stats.Backtracks++
	}
}

// Argmax returns the index of the largest entry of pi, or -1 if every
// entry is zero (no available action). Ties resolve to the lowest index.
func Argmax(pi tensor.Vec) int {
	best, bestV := -1, 0.0
	for i, v := range pi {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}
