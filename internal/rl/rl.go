// Package rl implements the paper's Deep-RL PBQP solver: MCTS-guided
// coloring (inference runs of Section IV-A) with the optional
// backtracking and liberty-based coloring orders of Section IV-E.
//
// Without backtracking the solver performs a one-way pass: k MCTS
// simulations per vertex, then the visit-count-maximizing color. With
// backtracking, a dead end cancels a coloring action, masks it in the
// game tree, re-invokes MCTS at the parent state ("more thinking
// time"), and tries the next most promising color — depth-first until a
// solution is found or the node budget is spent. Both runs skip work
// that cannot change the answer (DESIGN §6): a vertex with one color
// left is colored without MCTS, and a dead end unwinds past every
// coloring that played no part in it (conflict-directed backjumping)
// instead of only the most recent one.
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
	// LeafValue, when set, scores the positions MCTS adds in place of
	// the V-Net and the terminal reward (see mcts.Config.LeafValue).
	LeafValue func(*game.State) float64
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
	return s.SolveCtx(context.Background(), g)
}

// SolveCtx implements solve.Solver. The context is polled before
// every MCTS simulation and every coloring action, so cancellation
// lands within one simulation's latency. The solver commits to a
// coloring only when it reaches a complete feasible one, so there is no
// partial incumbent: on cancellation the result is infeasible with
// Truncated set.
//
// States is the number of game-tree nodes generated (Figure 6's
// metric). Stats counts canceled coloring actions ("backtracks"), dead
// ends reached ("dead_ends"), levels a failure unwound past without
// trying another of their colors because their coloring played no part
// in it ("jumps"), and colorings played without search because the
// vertex had one color left open ("forced").
func (s *Solver) SolveCtx(ctx context.Context, g *pbqp.Graph) solve.Result {
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
	// Backtracking re-roots at the parent after a dead end (Back), so
	// the parent chain must stay alive; one-way runs let Advance free it.
	tree := mcts.New(s.Net, g.M(), mcts.Config{LeafValue: cfg.LeafValue, RetainParents: cfg.Backtrack})
	run := &runner{ctx: ctx, cfg: cfg, st: st, tree: tree,
		stats: map[string]float64{"backtracks": 0, "dead_ends": 0, "jumps": 0, "forced": 0}}

	var ok bool
	switch {
	case !cfg.Backtrack:
		ok = run.oneWay()
	case st.DeadEnd():
		run.stats["dead_ends"]++
	default:
		run.sets = make([]turnSet, st.N()+1)
		ok = run.search()
	}
	res := solve.Result{Cost: cost.Inf, Truncated: run.truncated, States: tree.Nodes(), Stats: run.stats}
	if ok {
		// st.Acc() folds edge rows in play order; report Equation 1 in
		// the graph's canonical order so that Cost == TotalCost(Selection)
		// to the last bit on non-integer costs too. Finite entries can
		// still sum to ∞, which is no feasible cost.
		sel := st.Selection(g.NumVertices())
		if c := g.TotalCost(sel); !c.IsInf() {
			res.Selection, res.Cost, res.Feasible = sel, c, true
		}
	}
	return res
}

type runner struct {
	ctx       context.Context
	cfg       Config
	st        *game.State
	tree      *mcts.Tree
	sets      []turnSet // sets[t]: the conflict set of turn t's level, allocated on first use
	stats     map[string]float64
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

// stopped reports whether the search must give up: the node budget is
// spent or the context is done.
func (r *runner) stopped() bool { return r.overBudget() || r.cancelled() }

// oneWay is the inference run without backtracking: a dead end is a
// failure.
func (r *runner) oneWay() bool {
	for !r.st.Done() {
		if r.st.DeadEnd() {
			r.stats["dead_ends"]++
			return false
		}
		if r.stopped() {
			return false
		}
		a, open := r.tree.Forced(r.st)
		if open == 1 {
			r.stats["forced"]++
		} else if open > 1 {
			r.tree.RunCtx(r.ctx, r.st, r.cfg.K)
			if r.cancelled() {
				return false
			}
			a = Argmax(r.tree.Policy())
		}
		if a < 0 {
			return false
		}
		r.st.Play(a)
		r.tree.Advance(a)
	}
	return true
}

// search is the depth-first inference run of Section IV-E from the
// current state, which is not a dead end, with two deviations (DESIGN
// §6). A vertex with one color left open is colored without MCTS. And a
// failure unwinds to the turn that caused it: when search fails at turn
// t, r.sets[t] holds the failure's conflict set, earlier turns whose
// colors alone leave the state unsolvable, so a level whose turn is not
// in its child's set is left without trying another color.
func (r *runner) search() bool {
	t := r.st.Turn()
	if r.st.Done() {
		if !r.st.Acc().IsInf() {
			return true
		}
		// finite entries summed to ∞: no turn stands out as the cause, so
		// the parent backtracks chronologically
		r.set(t).prefix(t)
		return false
	}
	cs, sub := r.set(t), r.set(t+1)
	clear(cs)
	searched := false
	for {
		if r.stopped() {
			return false
		}
		a, open := r.tree.Forced(r.st)
		switch {
		case open == 1:
			r.stats["forced"]++
		case open > 1:
			if !searched || r.cfg.ReinvokeMCTS {
				r.tree.RunCtx(r.ctx, r.st, r.cfg.K)
				if r.cancelled() {
					return false
				}
				searched = true
			}
			if r.tree.RootHasMove() {
				a = Argmax(r.tree.Policy())
			}
		}
		if a < 0 {
			// No color left: the loop has merged the sets of the colors it
			// played, and explainRest adds the rest. A color still open
			// (the policy gave it no weight) or a closed subtree the walk
			// cannot account for leaves the whole prefix, which backtracks
			// chronologically.
			if r.tree.RootHasMove() || !r.explainRest(cs, false) {
				cs.prefix(t)
			}
			return false
		}
		r.st.Play(a)
		r.tree.Advance(a)
		if r.st.DeadEnd() {
			r.stats["dead_ends"]++
			r.deadEnd(sub)
		} else if r.search() {
			return true
		}
		r.st.Undo()
		r.tree.Back()
		r.tree.DisableRootAction(a)
		r.stats["backtracks"]++
		if r.stopped() {
			return false
		}
		if merge(cs, sub, t) {
			r.stats["jumps"]++ // no other color of this turn can help
			return false
		}
	}
}

// explainRest adds to cs what rules out the root's colors that no level
// of the search played: an illegal color by the culprits of its infinite
// entry, and a color the tree closed by the conflict set of its closed
// subtree (explain), which costs no evaluation. It reports false when a
// color stays unexplained: under strict, any other legal color; without
// it, the colors left are the ones the caller played and merged.
func (r *runner) explainRest(cs turnSet, strict bool) bool {
	t := r.st.Turn()
	r.st.Culprits(t, cs.add)
	sub := r.set(t + 1)
	for b := 0; b < r.st.M(); b++ {
		if !r.st.Legal(b) {
			continue
		}
		if !r.tree.Closed(b) {
			if strict {
				return false
			}
			continue
		}
		r.st.Play(b)
		r.tree.Advance(b)
		ok := r.explain(sub)
		r.st.Undo()
		r.tree.Back()
		if !ok {
			return false
		}
		if merge(cs, sub, t) {
			return true
		}
	}
	return true
}

// merge folds sub, the conflict set of one failed color of turn t, into
// cs, the set of t's level, and reports whether that settles the level:
// when t is not in sub, the failure did not depend on t's color, so sub
// alone explains the level and becomes its set.
func merge(cs, sub turnSet, t int) bool {
	if !sub.has(t) {
		copy(cs, sub)
		return true
	}
	sub.del(t)
	cs.or(sub)
	return false
}

// explain sets cs to the conflict set of the subtree at the tree's root,
// which the tree has closed: a dead end's culprits, or, for a node with
// no action left open, its colors' sets as a level of the search would
// merge them.
func (r *runner) explain(cs turnSet) bool {
	if r.st.DeadEnd() {
		r.deadEnd(cs)
		return true
	}
	clear(cs)
	return r.explainRest(cs, true)
}

// deadEnd sets cs to the culprits of the dead end the last Play reached:
// the turns that made a color of the vertex it killed infinite.
func (r *runner) deadEnd(cs turnSet) {
	clear(cs)
	r.st.Culprits(r.st.Killed(), cs.add)
}

// set returns turn t's conflict set, allocating it on first use: all n
// of a big graph's sets would cost n²/8 bytes up front, and a search
// that fails early never reaches the deep levels.
func (r *runner) set(t int) turnSet {
	if r.sets[t] == nil {
		r.sets[t] = make(turnSet, (r.st.N()+63)/64)
	}
	return r.sets[t]
}

// turnSet is a set of game turns, one bit each.
type turnSet []uint64

func (s turnSet) add(t int)      { s[t>>6] |= 1 << (t & 63) }
func (s turnSet) del(t int)      { s[t>>6] &^= 1 << (t & 63) }
func (s turnSet) has(t int) bool { return s[t>>6]&(1<<(t&63)) != 0 }

func (s turnSet) or(o turnSet) {
	for i := range s {
		s[i] |= o[i]
	}
}

// prefix makes s the turns before t.
func (s turnSet) prefix(t int) {
	for i := range s {
		switch lo := i * 64; {
		case t >= lo+64:
			s[i] = ^uint64(0)
		case t > lo:
			s[i] = 1<<(t-lo) - 1
		default:
			s[i] = 0
		}
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
