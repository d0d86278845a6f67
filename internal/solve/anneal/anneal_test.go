package anneal

import (
	"math/rand"
	"slices"
	"testing"

	"pbqprl/internal/cost"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/randgraph"
	"pbqprl/internal/solve"
	"pbqprl/internal/solve/brute"
)

func TestNearOptimalOnSmallGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	worse := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		g := randgraph.ErdosRenyi(rng, randgraph.Config{
			N: 4 + rng.Intn(6), M: 2 + rng.Intn(3), PEdge: 0.5, PInf: 0.05,
		})
		opt := (brute.Solver{}).Solve(g)
		res := Solver{Seed: int64(trial)}.Solve(g)
		if !opt.Feasible {
			continue
		}
		if !res.Feasible {
			t.Fatalf("trial %d: annealing infeasible on a feasible graph", trial)
		}
		if float64(res.Cost) > float64(opt.Cost)*1.3+1e-9 {
			worse++
		}
	}
	if worse > trials/4 {
		t.Errorf("annealing was >30%% off optimal on %d/%d graphs", worse, trials)
	}
}

func TestSelectionMatchesCost(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randgraph.ErdosRenyi(rng, randgraph.Config{N: 15, M: 4, PEdge: 0.3, PInf: 0.1})
	res := Solver{Seed: 7}.Solve(g)
	if res.Feasible {
		if got := g.TotalCost(res.Selection); got.IsInf() || float64(got-res.Cost) > 1e-6 || float64(res.Cost-got) > 1e-6 {
			t.Errorf("reported %v, selection costs %v", res.Cost, got)
		}
	}
}

func TestSolvesZeroInfAsRepair(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	solved := 0
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		g, _ := randgraph.ZeroInf(rng, randgraph.ZeroInfConfig{
			N: 20, M: 13, PEdge: 0.2, HardRatio: 0.3, PEdgeInf: 0.2,
		})
		res := Solver{Steps: 50_000, Seed: int64(trial)}.Solve(g)
		if res.Feasible && g.TotalCost(res.Selection) == 0 {
			solved++
		}
	}
	if solved < trials/2 {
		t.Errorf("annealing repaired only %d/%d zero/inf graphs", solved, trials)
	}
	t.Logf("annealing solved %d/%d zero/inf graphs", solved, trials)
}

// TestDeterministicGivenSeed holds the whole selection, not only its
// cost, to the seed: a restart that draws its random start from the
// global source or seeds itself from the clock changes the selection
// of a second run with the same seed. The graph is chosen so that such
// a change shows: every vertex cost is zero, so the greedy first run
// starts from color 0 everywhere and pays for every edge, and with a
// few steps per run a random restart wins, whose selection is its
// random start nearly unchanged. The test checks that a second seed
// picks a different selection, so it cannot pass because the seed
// does not matter.
func TestDeterministicGivenSeed(t *testing.T) {
	const n, m = 40, 3
	rng := rand.New(rand.NewSource(4))
	g := pbqp.New(n, m)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < 0.15 {
				same := cost.NewMatrix(m, m)
				for c := 0; c < m; c++ {
					same.Set(c, c, 1)
				}
				g.SetEdgeCost(u, v, same)
			}
		}
	}
	run := func(seed int64) solve.Result {
		return Solver{Steps: n / 4, Restarts: 3, Seed: seed}.Solve(g)
	}
	a, b := run(5), run(5)
	if !slices.Equal(a.Selection, b.Selection) || a.Cost != b.Cost || a.States != b.States {
		t.Errorf("seed 5 twice: selections %v and %v (cost %v, %v)", a.Selection, b.Selection, a.Cost, b.Cost)
	}
	if c := run(6); slices.Equal(a.Selection, c.Selection) {
		t.Fatalf("seeds 5 and 6 chose the same selection %v: the test cannot see an unseeded restart", a.Selection)
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	if res := (Solver{}).Solve(pbqp.New(0, 2)); !res.Feasible {
		t.Error("empty graph infeasible")
	}
	g := pbqp.New(1, 3)
	g.SetVertexCost(0, cost.Vector{cost.Inf, 4, 9})
	res := Solver{Seed: 1}.Solve(g)
	if !res.Feasible || res.Cost != 4 {
		t.Errorf("singleton: %+v", res)
	}
}

func TestName(t *testing.T) {
	if (Solver{}).Name() != "anneal" {
		t.Error("wrong name")
	}
}
