package solve_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pbqprl/internal/cost"
	"pbqprl/internal/decomp"
	"pbqprl/internal/mcts"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/rl"
	"pbqprl/internal/solve"
	"pbqprl/internal/solve/anneal"
	"pbqprl/internal/solve/brute"
	"pbqprl/internal/solve/liberty"
	"pbqprl/internal/solve/portfolio"
	"pbqprl/internal/solve/scholz"
)

// hardFeasible is an n-vertex, 2-color chain on which branch and
// bound prunes little: every assignment is feasible, and brute's states
// grow about 1.5× per vertex (246 at n = 10, 31 968 at 22, 814 964 at
// 30), so n = 60 is far out of reach — yet an incumbent appears on the
// very first descent.
func hardFeasible(n int) *pbqp.Graph {
	g := pbqp.New(n, 2)
	for u := 0; u < n; u++ {
		g.SetVertexCost(u, cost.Vector{-1, -2})
	}
	for u := 0; u+1 < n; u++ {
		g.SetEdgeCost(u, u+1, cost.NewMatrixFrom([][]cost.Cost{
			{1, 0},
			{0, 1},
		}))
	}
	return g
}

// pigeonhole60 is a 60-vertex graph whose first 12 vertices form a
// clique with "must differ" edges over only 11 colors — infeasible, and
// a worst case for chronological enumeration (≈ 11!·e states) and for
// MCTS backtracking, which can never reach a complete coloring.
func pigeonhole60() *pbqp.Graph {
	const m = 11
	g := pbqp.New(60, m)
	neq := cost.NewMatrix(m, m)
	for i := 0; i < m; i++ {
		neq.Set(i, i, cost.Inf)
	}
	for u := 0; u < 12; u++ {
		for v := u + 1; v < 12; v++ {
			g.SetEdgeCost(u, v, neq)
		}
	}
	return g
}

// libertyThrash puts 30 hard vertices with two open colors each ahead
// of a K5 on 4 colors, which no coloring of the prefix rescues: liberty
// enumerates all 2^30 prefixes without ever reaching its Scholz
// remainder, so its own per-state poll is the only one it makes.
func libertyThrash() *pbqp.Graph {
	const hard, m = 30, 4
	g := pbqp.New(hard+5, m)
	for u := 0; u < hard; u++ {
		g.SetVertexCost(u, cost.Vector{0, 0, cost.Inf, cost.Inf})
	}
	neq := cost.NewMatrix(m, m)
	for i := 0; i < m; i++ {
		neq.Set(i, i, cost.Inf)
	}
	for u := hard; u < hard+5; u++ {
		for v := u + 1; v < hard+5; v++ {
			g.SetEdgeCost(u, v, neq)
		}
	}
	return g
}

// checkAnytime asserts the cancellation contract on a result: a
// feasible answer must be internally consistent, an infeasible one must
// say so rather than hang or lie.
func checkAnytime(t *testing.T, g *pbqp.Graph, res solve.Result) {
	t.Helper()
	if res.Feasible {
		if got := g.TotalCost(res.Selection); got != res.Cost {
			t.Fatalf("best-so-far selection re-evaluates to %v, reported %v", got, res.Cost)
		}
		if res.Cost.IsInf() {
			t.Fatalf("feasible result with infinite cost")
		}
	}
}

// solverUnderTest pairs a context-aware solver with the graph that
// makes it slow and whether a feasible incumbent must survive
// truncation.
type solverUnderTest struct {
	name         string
	solver       solve.Solver
	graph        *pbqp.Graph
	wantFeasible bool // best-so-far must be feasible even when truncated
	// mustTruncate: the graph is beyond this solver's reach, so a 50 ms
	// deadline has to cut it short. False for the polynomial Scholz
	// solver, which may legitimately finish first.
	mustTruncate bool
}

func ctxSolvers() []solverUnderTest {
	deepRL := &rl.Solver{Net: mcts.Uniform{}, Cfg: rl.Config{
		K: 30, Backtrack: true, ReinvokeMCTS: true,
	}}
	return []solverUnderTest{
		{"brute", brute.Solver{}, hardFeasible(60), true, true},
		{"liberty", liberty.Solver{}, pigeonhole60(), false, true},
		{"anneal", anneal.Solver{Steps: 1 << 30, Restarts: 1}, hardFeasible(60), true, true},
		{"rl-backtrack", deepRL, pigeonhole60(), false, true},
		{"scholz", scholz.Solver{}, pigeonhole60(), false, false},
		{"portfolio", portfolio.New(0,
			&rl.Solver{Net: mcts.Uniform{}, Cfg: rl.Config{K: 30, Backtrack: true, ReinvokeMCTS: true}},
			liberty.Solver{},
		), pigeonhole60(), false, true},
	}
}

// TestExpiredContextReturnsImmediately feeds every solver an
// already-cancelled context on its worst-case graph: each must return
// promptly with Truncated set, never hang and never panic.
func TestExpiredContextReturnsImmediately(t *testing.T) {
	for _, tc := range ctxSolvers() {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			start := time.Now()
			res := tc.solver.SolveCtx(ctx, tc.graph)
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Fatalf("took %v with an expired context", elapsed)
			}
			if !res.Truncated {
				t.Fatalf("expected a truncated result, got %+v", res)
			}
			checkAnytime(t, tc.graph, res)
		})
	}
}

// TestDeadlineTruncatesWithBestSoFar gives every solver 50 ms on a
// 60-vertex graph it cannot finish. Each must come back around the
// deadline (the hard bound below is generous for loaded CI machines;
// the polling interval targets single-digit-millisecond overshoot) with
// its best feasible selection when it tracks an incumbent.
func TestDeadlineTruncatesWithBestSoFar(t *testing.T) {
	const deadline = 50 * time.Millisecond
	for _, tc := range ctxSolvers() {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			defer cancel()
			start := time.Now()
			res := tc.solver.SolveCtx(ctx, tc.graph)
			elapsed := time.Since(start)
			if elapsed > 2*time.Second {
				t.Fatalf("took %v against a %v deadline", elapsed, deadline)
			}
			if elapsed > 2*deadline {
				t.Logf("note: overshot the %v deadline: %v", deadline, elapsed)
			}
			if tc.mustTruncate && !res.Truncated {
				t.Fatalf("%s finished a graph it cannot finish: %+v", tc.name, res)
			}
			checkAnytime(t, tc.graph, res)
			if tc.wantFeasible && !res.Feasible {
				t.Fatalf("%s should keep a feasible incumbent, got %+v", tc.name, res)
			}
		})
	}
}

// TestCrossGoroutineCancel cancels mid-solve from another goroutine —
// the path the race detector cares about in a serving stack.
func TestCrossGoroutineCancel(t *testing.T) {
	g := hardFeasible(60)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan solve.Result, 1)
	go func() {
		done <- brute.Solver{}.SolveCtx(ctx, g)
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case res := <-done:
		checkAnytime(t, g, res)
		if !res.Feasible {
			t.Fatalf("brute lost its incumbent: %+v", res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("solver did not return after cancellation")
	}
}

// TestScholzDeadlineStillCompletes pins the graceful-degradation
// behavior: a cancelled Scholz run falls back to pure-RN coloring but
// still returns a complete selection for every vertex.
func TestScholzDeadlineStillCompletes(t *testing.T) {
	g := hardFeasible(60)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := scholz.Solver{}.SolveCtx(ctx, g)
	if !res.Truncated {
		t.Fatalf("expected truncated result, got %+v", res)
	}
	if len(res.Selection) != 60 {
		t.Fatalf("selection length %d, want 60", len(res.Selection))
	}
	if !res.Feasible {
		t.Fatalf("all-finite graph must stay feasible under RN fallback: %+v", res)
	}
	if got := g.TotalCost(res.Selection); got != res.Cost {
		t.Fatalf("cost %v, selection re-evaluates to %v", res.Cost, got)
	}
}

// TestUncancelledSolversUnchanged pins that a background context leaves
// results identical to the plain Solve path.
func TestUncancelledSolversUnchanged(t *testing.T) {
	// Small feasible chain of "must differ" constraints.
	small := pbqp.New(4, 3)
	neq := cost.NewMatrix(3, 3)
	for i := 0; i < 3; i++ {
		neq.Set(i, i, cost.Inf)
	}
	small.SetEdgeCost(0, 1, neq)
	small.SetEdgeCost(1, 2, neq)
	small.SetEdgeCost(2, 3, neq)
	for _, s := range []solve.Solver{brute.Solver{}, liberty.Solver{}, scholz.Solver{}} {
		plain := s.Solve(small)
		ctxed := s.SolveCtx(context.Background(), small)
		if plain.Feasible != ctxed.Feasible || plain.Cost != ctxed.Cost ||
			plain.States != ctxed.States || ctxed.Truncated {
			t.Fatalf("%s: plain %+v != ctx %+v", s.Name(), plain, ctxed)
		}
	}
}

// pollCtx is a context whose Err and Done start reporting
// context.Canceled on the k-th call to either: every call is one poll,
// so cancellation lands at an exact poll instead of a wall-clock
// moment, and a solver that skips a poll it owes runs on past it.
type pollCtx struct {
	context.Context // Background: no deadline, no values
	k               int64
	polls           atomic.Int64
	once            sync.Once
	done            chan struct{}
}

func newPollCtx(k int64) *pollCtx {
	return &pollCtx{Context: context.Background(), k: k, done: make(chan struct{})}
}

// poll counts one poll and reports whether it is the k-th or later.
func (c *pollCtx) poll() bool {
	if c.polls.Add(1) < c.k {
		return false
	}
	c.once.Do(func() { close(c.done) })
	return true
}

func (c *pollCtx) Err() error {
	if c.poll() {
		return context.Canceled
	}
	return nil
}

func (c *pollCtx) Done() <-chan struct{} {
	c.poll()
	return c.done
}

// TestCancelledAtEveryPoll cancels each solver at its k-th context
// poll, for every k up to the 20 polls Scholz makes on a 5000-vertex
// chain. Each graph is one the solver cannot finish in k polls, and on
// each the solver has to return Truncated, promptly, with a feasible
// answer that re-evaluates to its cost. Polls come at most
// solve.CheckInterval states apart, the first before any state, so the
// cancelling poll comes by state (k-1)·CheckInterval, and a solver
// reports at most its tail of states past it.
func TestCancelledAtEveryPoll(t *testing.T) {
	const maxK = 20
	rlbt := func() solve.Solver {
		return &rl.Solver{Net: mcts.Uniform{}, Cfg: rl.Config{K: 30, Backtrack: true, ReinvokeMCTS: true}}
	}
	cases := []struct {
		name   string
		solver solve.Solver
		graph  *pbqp.Graph
		// tail bounds the states past the cancelling poll: a search
		// stops within CheckInterval of it, while Scholz's fallback
		// still colors every vertex left alive.
		tail int64
	}{
		{"brute", brute.Solver{}, hardFeasible(60), solve.CheckInterval},
		{"liberty", liberty.Solver{}, libertyThrash(), solve.CheckInterval},
		{"scholz", scholz.Solver{}, hardFeasible(5000), 5000},
		{"anneal", anneal.Solver{Steps: 1 << 30, Restarts: 1}, hardFeasible(60), solve.CheckInterval},
		{"anneal-restarts", anneal.Solver{Steps: 100, Restarts: 1 << 20}, hardFeasible(60), solve.CheckInterval},
		{"rl-bt", rlbt(), pigeonhole60(), solve.CheckInterval},
		{"portfolio", portfolio.New(0, rlbt(), liberty.Solver{}), pigeonhole60(), solve.CheckInterval},
		{"decomp", decomp.Wrap(liberty.Solver{}), pigeonhole60(), solve.CheckInterval},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for k := int64(1); k <= maxK; k++ {
				ctx := newPollCtx(k)
				done := make(chan solve.Result, 1)
				go func() { done <- tc.solver.SolveCtx(ctx, tc.graph) }()
				var res solve.Result
				select {
				case res = <-done:
				case <-time.After(2 * time.Second):
					t.Fatalf("k=%d: still running after 2s (%d polls so far)", k, ctx.polls.Load())
				}
				if !res.Truncated {
					t.Fatalf("k=%d: not truncated after %d polls (feasible=%v, %d states)", k, ctx.polls.Load(), res.Feasible, res.States)
				}
				checkAnytime(t, tc.graph, res)
				if limit := (k-1)*solve.CheckInterval + tc.tail; res.States > limit {
					t.Fatalf("k=%d: %d states, more than the %d the cancelling poll allows", k, res.States, limit)
				}
			}
		})
	}
}
