package rl

import (
	"context"
	"math/rand"
	"testing"

	"pbqprl/internal/cost"
	"pbqprl/internal/game"
	"pbqprl/internal/mcts"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/randgraph"
	"pbqprl/internal/solve/brute"
	"pbqprl/internal/tensor"
)

func TestArgmax(t *testing.T) {
	if Argmax(tensor.Vec{0, 0.2, 0.8}) != 2 {
		t.Error("wrong argmax")
	}
	if Argmax(tensor.Vec{0, 0, 0}) != -1 {
		t.Error("all-zero argmax should be -1")
	}
	if Argmax(tensor.Vec{0.5, 0.5}) != 0 {
		t.Error("tie should resolve to lowest index")
	}
}

func TestOneWaySolvesEasyGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, _ := randgraph.ZeroInf(rng, randgraph.ZeroInfConfig{
		N: 15, M: 6, PEdge: 0.2, HardRatio: 0.2, PEdgeInf: 0.1,
	})
	s := &Solver{Net: mcts.Uniform{}, Cfg: Config{K: 25, Order: game.OrderDecLiberty}}
	res := s.SolveCtx(context.Background(), g)
	if !res.Feasible {
		t.Fatalf("failed on an easy graph (stats %v)", res.Stats)
	}
	if res.Cost != 0 {
		t.Errorf("cost = %v, want 0", res.Cost)
	}
	if got := g.TotalCost(res.Selection); got != 0 {
		t.Errorf("selection cost = %v", got)
	}
	if res.States == 0 || len(res.Stats) != 4 {
		t.Errorf("states %d, stats %v: want nodes and the four counters", res.States, res.Stats)
	}
}

func TestBacktrackingRescuesHardGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	oneWayFails, backtrackFails := 0, 0
	const trials = 6
	for trial := 0; trial < trials; trial++ {
		g, _ := randgraph.ZeroInf(rng, randgraph.ZeroInfConfig{
			N: 30, M: 13, PEdge: 0.25, HardRatio: 0.4, PEdgeInf: 0.3,
		})
		oneWay := &Solver{Net: mcts.Uniform{}, Cfg: Config{
			K: 10, Order: game.OrderDecLiberty, Seed: int64(trial),
		}}
		if !oneWay.Solve(g).Feasible {
			oneWayFails++
		}
		// inc-liberty: with an untrained (uniform) evaluator, coloring
		// hard vertices first keeps conflicts chronological; the
		// dec-liberty advantage of Figure 6 needs a trained network and
		// is exercised by the experiment harness.
		bt := &Solver{Net: mcts.Uniform{}, Cfg: Config{
			K: 10, Order: game.OrderIncLiberty, Backtrack: true,
			ReinvokeMCTS: true, MaxNodes: 150_000, Seed: int64(trial),
		}}
		if !bt.Solve(g).Feasible {
			backtrackFails++
		}
	}
	if backtrackFails > 0 {
		t.Errorf("backtracking failed %d/%d solvable graphs", backtrackFails, trials)
	}
	t.Logf("failures: one-way %d/%d, backtrack %d/%d", oneWayFails, trials, backtrackFails, trials)
}

func TestAblationNoReinvokeStillSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fails := 0
	for trial := 0; trial < 5; trial++ {
		g, _ := randgraph.ZeroInf(rng, randgraph.ZeroInfConfig{
			N: 30, M: 13, PEdge: 0.25, HardRatio: 0.4, PEdgeInf: 0.3,
		})
		s := &Solver{Net: mcts.Uniform{}, Cfg: Config{
			K: 10, Order: game.OrderIncLiberty, Backtrack: true,
			ReinvokeMCTS: false, MaxNodes: 150_000,
		}}
		if !s.Solve(g).Feasible {
			fails++
		}
	}
	if fails > 0 {
		t.Errorf("ablation variant failed %d/5", fails)
	}
}

func TestMaxNodesAborts(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g, _ := randgraph.ZeroInf(rng, randgraph.ZeroInfConfig{
		N: 50, M: 13, PEdge: 0.3, HardRatio: 0.6, PEdgeInf: 0.4,
	})
	s := &Solver{Net: mcts.Uniform{}, Cfg: Config{
		K: 25, Order: game.OrderDecLiberty, Backtrack: true, ReinvokeMCTS: true,
		MaxNodes: 100,
	}}
	res := s.Solve(g)
	if res.States > 100+25+1 {
		t.Errorf("states = %d, budget not respected", res.States)
	}
}

func TestAllOrdersSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, _ := randgraph.ZeroInf(rng, randgraph.ZeroInfConfig{
		N: 25, M: 13, PEdge: 0.25, HardRatio: 0.4, PEdgeInf: 0.3,
	})
	for _, order := range []game.Order{game.OrderFixed, game.OrderRandom, game.OrderIncLiberty, game.OrderDecLiberty} {
		s := &Solver{Net: mcts.Uniform{}, Cfg: Config{
			K: 10, Order: order, Backtrack: true, ReinvokeMCTS: true,
			MaxNodes: 300_000, Seed: 7,
		}}
		res := s.Solve(g)
		if !res.Feasible {
			// only inc-liberty is guaranteed with an untrained net;
			// the others depend on a trained value function
			if order == game.OrderIncLiberty {
				t.Errorf("order %v failed", order)
			} else {
				t.Logf("order %v failed with uniform evaluator (needs a trained net)", order)
			}
			continue
		}
		if got := g.TotalCost(res.Selection); got != 0 {
			t.Errorf("order %v: selection cost %v", order, got)
		}
	}
}

func TestDecLibertyGeneratesFewerNodesThanRandom(t *testing.T) {
	// the Figure 6 trend; averaged over several graphs to damp noise
	rng := rand.New(rand.NewSource(6))
	var decNodes, randNodes int64
	for trial := 0; trial < 5; trial++ {
		g, _ := randgraph.ZeroInf(rng, randgraph.ZeroInfConfig{
			N: 30, M: 13, PEdge: 0.25, HardRatio: 0.4, PEdgeInf: 0.3,
		})
		dec := &Solver{Net: mcts.Uniform{}, Cfg: Config{
			K: 10, Order: game.OrderDecLiberty, Backtrack: true, ReinvokeMCTS: true,
			MaxNodes: 500_000, Seed: int64(trial),
		}}
		rnd := &Solver{Net: mcts.Uniform{}, Cfg: Config{
			K: 10, Order: game.OrderRandom, Backtrack: true, ReinvokeMCTS: true,
			MaxNodes: 500_000, Seed: int64(trial),
		}}
		decNodes += dec.Solve(g).States
		randNodes += rnd.Solve(g).States
	}
	if decNodes > randNodes {
		t.Logf("note: dec-liberty %d nodes vs random %d (trend may flip for tiny samples)", decNodes, randNodes)
	} else {
		t.Logf("dec-liberty %d nodes vs random %d", decNodes, randNodes)
	}
}

func TestBaselineChangesTerminalReward(t *testing.T) {
	// a tiny minimization problem: with a tight baseline, MCTS should
	// still find *a* coloring; the result cost equals the greedy pass.
	g := pbqp.New(2, 2)
	g.SetVertexCost(0, cost.Vector{3, 1})
	g.SetVertexCost(1, cost.Vector{0, 4})
	s := &Solver{Net: mcts.Uniform{}, Cfg: Config{
		K: 50, Order: game.OrderFixed, Baseline: 1, HasBaseline: true,
	}}
	res := s.Solve(g)
	if !res.Feasible {
		t.Fatal("infeasible")
	}
	opt := (brute.Solver{}).Solve(g)
	if res.Cost != opt.Cost {
		t.Logf("note: greedy pass found %v, optimum %v", res.Cost, opt.Cost)
	}
}

func TestSolverName(t *testing.T) {
	s := &Solver{Net: mcts.Uniform{}}
	if s.Name() != "deep-rl" {
		t.Error("wrong name")
	}
	s.Cfg.Backtrack = true
	if s.Name() != "deep-rl+backtrack" {
		t.Error("wrong backtrack name")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g, _ := randgraph.ZeroInf(rng, randgraph.ZeroInfConfig{
		N: 20, M: 8, PEdge: 0.3, HardRatio: 0.4, PEdgeInf: 0.3,
	})
	run := func() (bool, int64) {
		s := &Solver{Net: mcts.Uniform{}, Cfg: Config{
			K: 10, Order: game.OrderRandom, Backtrack: true, ReinvokeMCTS: true,
			MaxNodes: 100_000, Seed: 42,
		}}
		r := s.Solve(g)
		return r.Feasible, r.States
	}
	f1, s1 := run()
	f2, s2 := run()
	if f1 != f2 || s1 != s2 {
		t.Errorf("non-deterministic: (%v,%d) vs (%v,%d)", f1, s1, f2, s2)
	}
}

// exactnessGraph returns graph i of TestBacktrackExact's mix: a small
// ZeroInf graph, feasible as generated, which every third graph keeps.
// The others are spoiled, so that some cannot be colored: every third a
// pigeonhole clique (one more vertex than colors, pairwise forbidden to
// share one) is planted, and every third gets random infinite entries
// on random pairs, the hidden solution's included, which may or may not
// leave a coloring.
func exactnessGraph(rng *rand.Rand, i int) *pbqp.Graph {
	m := 2 + rng.Intn(3)
	n := 10 + rng.Intn(9)
	g, _ := randgraph.ZeroInf(rng, randgraph.ZeroInfConfig{
		N: n, M: m, PEdge: 0.3, HardRatio: 0.4, PEdgeInf: 0.3,
	})
	switch i % 3 {
	case 1:
		interference := cost.NewMatrix(m, m)
		for c := 0; c < m; c++ {
			interference.Set(c, c, cost.Inf)
		}
		clique := rng.Perm(n)[:m+1]
		for a, u := range clique {
			for _, w := range clique[a+1:] {
				g.AddEdgeCost(u, w, interference)
			}
		}
	case 2:
		for k := 0; k < n/2; k++ {
			u, w := rng.Intn(n), rng.Intn(n)
			if u == w {
				continue
			}
			mat := cost.NewMatrix(m, m)
			for e := range mat.Data {
				if rng.Float64() < 0.4 {
					mat.Data[e] = cost.Inf
				}
			}
			g.AddEdgeCost(u, w, mat)
		}
	}
	return g
}

// TestBacktrackExact pins the backtracking solver to the brute oracle
// where nothing caps its search: with no node budget it must find a
// coloring exactly when one exists, whatever it skips — forced colors
// played without search, and levels a conflict set jumps over. A jump
// past a level that could have mended the failure shows up here as a
// feasible graph declared infeasible.
func TestBacktrackExact(t *testing.T) {
	const graphs = 420
	rng := rand.New(rand.NewSource(11))
	var feasible, infeasible int
	var jumps, forced int64
	for i := 0; i < graphs; i++ {
		g := exactnessGraph(rng, i)
		exact := (brute.Solver{}).Solve(g)
		if exact.Feasible {
			feasible++
		} else {
			infeasible++
		}
		order := []game.Order{game.OrderIncLiberty, game.OrderRandom, game.OrderDecLiberty, game.OrderFixed}[i%4]
		for _, k := range []int{1, 3} {
			for _, reinvoke := range []bool{true, false} {
				s := &Solver{Net: mcts.Uniform{}, Cfg: Config{
					K: k, Order: order, Backtrack: true, ReinvokeMCTS: reinvoke, Seed: int64(i),
				}}
				res := s.SolveCtx(context.Background(), g)
				jumps += int64(res.Stats["jumps"])
				forced += int64(res.Stats["forced"])
				if res.Feasible != exact.Feasible {
					t.Fatalf("graph %d (%v, K=%d, reinvoke %v): feasible = %v, brute says %v\n%s",
						i, order, k, reinvoke, res.Feasible, exact.Feasible, g)
				}
				if res.Feasible && (res.Cost != exact.Cost || g.TotalCost(res.Selection) != res.Cost) {
					t.Fatalf("graph %d (%v, K=%d, reinvoke %v): cost %v, selection %v, optimum %v",
						i, order, k, reinvoke, res.Cost, g.TotalCost(res.Selection), exact.Cost)
				}
			}
		}
	}
	t.Logf("%d feasible, %d infeasible; %d levels jumped, %d colors forced", feasible, infeasible, jumps, forced)
	if feasible < graphs/4 || infeasible < graphs/4 {
		t.Errorf("the mix has %d feasible and %d infeasible graphs; both should be at least a quarter", feasible, infeasible)
	}
	if jumps == 0 || forced == 0 {
		t.Errorf("nothing was skipped (%d jumps, %d forced): the test no longer exercises the shortcuts", jumps, forced)
	}
}
