package portfolio

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"pbqprl/internal/cost"
	"pbqprl/internal/mcts"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/rl"
	"pbqprl/internal/solve"
	"pbqprl/internal/solve/liberty"
	"pbqprl/internal/solve/scholz"
)

// stub returns a fixed result, ignoring the graph.
type stub struct {
	name string
	res  solve.Result
}

func (s stub) Name() string                                       { return s.name }
func (s stub) Solve(*pbqp.Graph) solve.Result                     { return s.res }
func (s stub) SolveCtx(context.Context, *pbqp.Graph) solve.Result { return s.res }

// panicky always panics, simulating a buggy stage.
type panicky struct{}

func (panicky) Name() string                   { return "panicky" }
func (panicky) Solve(*pbqp.Graph) solve.Result { panic("injected failure") }
func (p panicky) SolveCtx(_ context.Context, g *pbqp.Graph) solve.Result {
	return p.Solve(g)
}

// spinner busy-loops until its context fires.
type spinner struct{}

func (spinner) Name() string { return "spinner" }
func (spinner) Solve(g *pbqp.Graph) solve.Result {
	return spinner{}.SolveCtx(context.Background(), g)
}
func (spinner) SolveCtx(ctx context.Context, g *pbqp.Graph) solve.Result {
	for ctx.Err() == nil {
		time.Sleep(50 * time.Microsecond)
	}
	return solve.Result{Cost: cost.Inf, Truncated: true}
}

// chainGraph is a tiny feasible graph: two vertices that must disagree.
func chainGraph(t *testing.T) *pbqp.Graph {
	t.Helper()
	g := pbqp.New(2, 2)
	g.SetVertexCost(0, cost.Vector{0, 1})
	g.SetVertexCost(1, cost.Vector{0, 1})
	g.SetEdgeCost(0, 1, cost.NewMatrixFrom([][]cost.Cost{
		{cost.Inf, 0},
		{0, cost.Inf},
	}))
	return g
}

func feasible(c cost.Cost, sel ...int) solve.Result {
	return solve.Result{Selection: sel, Cost: c, Feasible: true}
}

func TestPanicRecoveredAndLogged(t *testing.T) {
	var logged strings.Builder
	p := &Solver{
		Stages: []solve.Solver{
			panicky{},
			stub{name: "ok", res: feasible(7, 0, 1)},
		},
		StopOnFeasible: true,
		Logf:           func(f string, args ...any) { fmt.Fprintf(&logged, f, args...) },
	}
	g := chainGraph(t)
	res, stats := p.SolveStats(context.Background(), g)
	if !res.Feasible || res.Cost != 7 {
		t.Fatalf("want the fallback stage's result, got %+v", res)
	}
	if !stats.Stages[0].Panicked || stats.Stages[0].PanicValue != "injected failure" {
		t.Fatalf("stage 0 outcome = %+v, want recovered panic", stats.Stages[0])
	}
	if stats.Winner != 1 {
		t.Fatalf("winner = %d, want 1", stats.Winner)
	}
	if !strings.Contains(logged.String(), "injected failure") ||
		!strings.Contains(logged.String(), "pbqp 2 2") {
		t.Fatalf("panic log is missing the message or the graph dump:\n%s", logged.String())
	}
}

func TestBudgetTruncatesEveryStage(t *testing.T) {
	p := New(60*time.Millisecond, spinner{}, spinner{})
	start := time.Now()
	res, stats := p.SolveStats(context.Background(), chainGraph(t))
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("portfolio ran %v, far past its 60ms budget", elapsed)
	}
	if res.Feasible || !res.Truncated {
		t.Fatalf("want infeasible truncated result, got %+v", res)
	}
	for i, out := range stats.Stages {
		if !out.Result.Truncated && !out.Skipped {
			t.Fatalf("stage %d neither truncated nor skipped: %+v", i, out)
		}
	}
}

// clock records the start and the deadline of the stage context it is
// handed; with spin set it then runs until that context fires.
type clock struct {
	spin            bool
	start, deadline time.Time
}

func (*clock) Name() string                       { return "clock" }
func (c *clock) Solve(g *pbqp.Graph) solve.Result { return c.SolveCtx(context.Background(), g) }
func (c *clock) SolveCtx(ctx context.Context, g *pbqp.Graph) solve.Result {
	c.start = time.Now()
	c.deadline, _ = ctx.Deadline()
	if c.spin {
		return spinner{}.SolveCtx(ctx, g)
	}
	return solve.Result{Cost: cost.Inf}
}

// TestBudgetSplitsEvenlyOverStagesLeft pins the one budget split there
// is: a stage may spend the time remaining at its start divided by the
// stages left, itself included.
func TestBudgetSplitsEvenlyOverStagesLeft(t *testing.T) {
	g := chainGraph(t)
	const tol = 20 * time.Millisecond
	checkShare := func(i, left int, c *clock, end time.Time) {
		t.Helper()
		got, want := c.deadline.Sub(c.start)*time.Duration(left), end.Sub(c.start)
		if d := got - want; d < -tol || d > tol {
			t.Errorf("stage %d: budget %v × %d stages left = %v, want the %v remaining", i, c.deadline.Sub(c.start), left, got, want)
		}
	}

	// A first stage that returns at once leaves the second all of what
	// remains: its deadline is the caller's.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	end, _ := ctx.Deadline()
	quick, second := &clock{}, &clock{}
	New(0, quick, second).SolveStats(ctx, g)
	checkShare(0, 2, quick, end)
	if !second.deadline.Equal(end) {
		t.Errorf("second stage's deadline is %v before the caller's", end.Sub(second.deadline))
	}

	// Three stages that spend all they are given: each gets 1/(stages
	// left) of what remains at its start.
	ctx, cancel = context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	end, _ = ctx.Deadline()
	stages := []*clock{{spin: true}, {spin: true}, {spin: true}}
	New(0, stages[0], stages[1], stages[2]).SolveStats(ctx, g)
	for i, c := range stages {
		checkShare(i, len(stages)-i, c, end)
	}
	if last := stages[2]; !last.deadline.Equal(end) {
		t.Errorf("last stage's deadline is %v before the caller's", end.Sub(last.deadline))
	}
}

func TestStopOnFeasibleSkipsRest(t *testing.T) {
	p := &Solver{
		Stages: []solve.Solver{
			stub{name: "first", res: feasible(3, 1, 0)},
			panicky{}, // must never run
		},
		StopOnFeasible: true,
	}
	res, stats := p.SolveStats(context.Background(), chainGraph(t))
	if !res.Feasible || res.Cost != 3 || res.Truncated {
		t.Fatalf("got %+v", res)
	}
	if !stats.Stages[1].Skipped || stats.Stages[1].Panicked {
		t.Fatalf("stage 1 should have been skipped: %+v", stats.Stages[1])
	}
}

func TestKeepsCheapestAcrossStages(t *testing.T) {
	p := &Solver{
		Stages: []solve.Solver{
			stub{name: "pricey", res: feasible(10, 0, 1)},
			stub{name: "cheap", res: feasible(2, 1, 0)},
			stub{name: "mid", res: feasible(5, 0, 1)},
		},
		StopOnFeasible: false,
	}
	res, stats := p.SolveStats(context.Background(), chainGraph(t))
	if !res.Feasible || res.Cost != 2 || stats.Winner != 1 {
		t.Fatalf("res=%+v winner=%d, want cost 2 from stage 1", res, stats.Winner)
	}
}

func TestExpiredContextSkipsEverything(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := New(time.Second, stub{name: "never", res: feasible(1, 0, 1)})
	res, stats := p.SolveStats(ctx, chainGraph(t))
	if res.Feasible || !res.Truncated {
		t.Fatalf("got %+v, want skipped truncated result", res)
	}
	if !stats.Stages[0].Skipped {
		t.Fatalf("stage 0 should be skipped: %+v", stats.Stages[0])
	}
}

// TestRealChain runs the paper's fallback order — Deep-RL (uniform
// prior), liberty enumeration, Scholz — on a small feasible problem.
func TestRealChain(t *testing.T) {
	g := chainGraph(t)
	deepRL := &rl.Solver{Net: mcts.Uniform{}, Cfg: rl.Config{
		K: 8, Backtrack: true, ReinvokeMCTS: true,
	}}
	p := New(2*time.Second, deepRL, liberty.Solver{}, scholz.Solver{})
	res, stats := p.SolveStats(context.Background(), g)
	if !res.Feasible || res.Truncated {
		t.Fatalf("res=%+v stats=%+v", res, stats)
	}
	if got := g.TotalCost(res.Selection); got != res.Cost {
		t.Fatalf("reported cost %v, recomputed %v", res.Cost, got)
	}
	if p.Name() != "portfolio(deep-rl+backtrack→liberty→scholz)" {
		t.Fatalf("name = %q", p.Name())
	}
}

// TestMutatingStageCannotPoisonLaterStages gives the first stage a
// solver that violates the no-mutate contract before panicking; the
// second stage must still see the original graph.
func TestMutatingStageCannotPoisonLaterStages(t *testing.T) {
	p := &Solver{
		Stages: []solve.Solver{
			vandal{},
			scholz.Solver{},
		},
		StopOnFeasible: true,
		Logf:           func(string, ...any) {},
	}
	g := chainGraph(t)
	res, _ := p.SolveStats(context.Background(), g)
	if !res.Feasible {
		t.Fatalf("second stage failed after first-stage vandalism: %+v", res)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("caller's graph corrupted: %v", err)
	}
	if g.AliveCount() != 2 {
		t.Fatalf("caller's graph mutated: %d alive vertices", g.AliveCount())
	}
}

// vandal mutates its input graph and then panics.
type vandal struct{}

func (vandal) Name() string { return "vandal" }
func (v vandal) Solve(g *pbqp.Graph) solve.Result {
	return v.SolveCtx(context.Background(), g)
}
func (vandal) SolveCtx(_ context.Context, g *pbqp.Graph) solve.Result {
	g.RemoveVertex(0)
	panic("vandalized")
}

// TestStatsJSONRoundTrip pins the wire shape of SolveStats: the same
// struct the server returns and pbqp-solve -stats-json prints. Infinite
// costs must encode as "inf", durations as nanoseconds, a stage's own
// Result.Stats must reach its Outcome (and only a stage that reports
// some carries a "stats" object), and decoding must invert encoding.
func TestStatsJSONRoundTrip(t *testing.T) {
	p := &Solver{
		Stages: []solve.Solver{
			panicky{},
			stub{"hopeless", solve.Result{Cost: cost.Inf, Stats: map[string]float64{"k": 1}}},
			stub{"winner", feasible(3, 1, 0)},
			stub{"spare", feasible(5, 0, 1)},
		},
		StopOnFeasible: true,
		Logf:           func(string, ...any) {},
	}
	_, stats := p.SolveStats(context.Background(), chainGraph(t))
	data, err := json.Marshal(stats)
	if err != nil {
		t.Fatalf("marshal stats: %v", err)
	}
	for _, want := range []string{`"name":"panicky"`, `"panicked":true`, `"winner":2`, `"skipped":true`, `"cost":"inf"`, `"stats":{"k":1}`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("stats JSON %s\nmissing %s", data, want)
		}
	}
	if n := strings.Count(string(data), `"stats":`); n != 1 {
		t.Fatalf("stats JSON %s\nhas %d stats objects, want only the hopeless stage's", data, n)
	}
	var back Stats
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal stats: %v", err)
	}
	if back.Winner != stats.Winner || len(back.Stages) != len(stats.Stages) {
		t.Fatalf("round trip changed shape: %+v vs %+v", back, stats)
	}
	if r := back.Stages[2].Result; !r.Feasible || r.Cost != stats.Stages[2].Result.Cost {
		t.Fatalf("winning stage result did not survive the round trip: %+v", r)
	}
	if got := back.Stages[1].Result.Stats; len(got) != 1 || got["k"] != 1 {
		t.Fatalf("the hopeless stage's stats came back as %v, want map[k:1]", got)
	}
}
