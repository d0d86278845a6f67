package solve_test

import (
	"math"
	"math/rand"
	"testing"

	"pbqprl/internal/cost"
	"pbqprl/internal/game"
	"pbqprl/internal/mcts"
	"pbqprl/internal/net"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/rl"
	"pbqprl/internal/solve"
	"pbqprl/internal/solve/anneal"
	"pbqprl/internal/solve/brute"
	"pbqprl/internal/solve/liberty"
	"pbqprl/internal/solve/portfolio"
	"pbqprl/internal/solve/scholz"
)

// TestCostIsTotalCostOfSelection pins what Result.Cost is: Equation 1
// evaluated over the returned selection in the graph's canonical order,
// to the last bit. No sum of the costs used here (0.1, 0.7, 1.3) is
// exact in binary, so a solver that reports the sum it accumulated
// along its own search order — as brute, liberty and rl did — disagrees
// with TotalCost in the low bits.
func TestCostIsTotalCostOfSelection(t *testing.T) {
	const n, m = 9, 3
	evaluator := net.New(net.Config{M: m, GCNLayers: 1, Hidden: 8, Blocks: 1, Seed: 5})
	deepRL := func(backtrack bool) solve.Solver {
		return &rl.Solver{Net: evaluator.Clone(), Cfg: rl.Config{
			K: 8, Order: game.OrderDecLiberty, Backtrack: backtrack, ReinvokeMCTS: true,
		}}
	}
	solvers := map[string]solve.Solver{
		"brute":     brute.Solver{},
		"liberty":   liberty.Solver{},
		"scholz":    scholz.Solver{},
		"anneal":    anneal.Solver{Seed: 3},
		"rl":        deepRL(false),
		"rl-bt":     deepRL(true),
		"portfolio": portfolio.New(0, deepRL(true), liberty.Solver{}, scholz.Solver{}),
	}
	values := []cost.Cost{0.1, 0.7, 1.3}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := pbqp.New(n, m)
		for u := 0; u < n; u++ {
			vec := cost.NewVector(m)
			for i := range vec {
				vec[i] = values[rng.Intn(len(values))]
			}
			g.SetVertexCost(u, vec)
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.5 {
					mat := cost.NewMatrix(m, m)
					for i := range mat.Data {
						mat.Data[i] = values[rng.Intn(len(values))]
					}
					g.SetEdgeCost(u, v, mat)
				}
			}
		}
		for name, s := range solvers {
			res := s.Solve(g)
			if !res.Feasible {
				t.Fatalf("seed %d: %s found no coloring of a graph without infinite costs", seed, name)
			}
			want := g.TotalCost(res.Selection)
			if math.Float64bits(float64(res.Cost)) != math.Float64bits(float64(want)) {
				t.Errorf("seed %d: %s reports cost %v (%x), TotalCost(Selection) = %v (%x)", seed, name,
					res.Cost, math.Float64bits(float64(res.Cost)), want, math.Float64bits(float64(want)))
			}
		}
	}
}

// TestFeasibleCostIsFinite pins what Feasible promises: a selection
// whose Equation 1 is finite. Finite entries can sum to ∞ (each 2e307
// is below the infinite threshold MaxFloat64/4, three of them are not),
// and a solver that checks only its entries one by one would report
// such a selection feasible at cost ∞. Anneal and the portfolio compare
// the costs of two feasible results with Cost.Less; on finite costs
// that is the float order, which this invariant is what guarantees.
func TestFeasibleCostIsFinite(t *testing.T) {
	evaluator := net.New(net.Config{M: 3, GCNLayers: 1, Hidden: 8, Blocks: 1, Seed: 5})
	deepRL := func(backtrack bool) solve.Solver {
		return &rl.Solver{Net: evaluator.Clone(), Cfg: rl.Config{K: 8, Order: game.OrderDecLiberty, Backtrack: backtrack}}
	}
	solvers := map[string]solve.Solver{
		"brute":     brute.Solver{},
		"liberty":   liberty.Solver{},
		"scholz":    scholz.Solver{},
		"anneal":    anneal.Solver{Seed: 3},
		"rl":        deepRL(false),
		"rl-bt":     deepRL(true),
		"portfolio": portfolio.New(0, deepRL(true), liberty.Solver{}, scholz.Solver{}),
	}
	feasible := 0
	for seed := int64(1); seed <= 12; seed++ {
		g := overflowGraph(seed)
		for name, s := range solvers {
			res := s.Solve(g)
			if !res.Feasible {
				continue
			}
			feasible++
			if res.Cost.IsInf() || g.TotalCost(res.Selection).IsInf() {
				t.Errorf("seed %d: %s reports a feasible selection of cost %v, TotalCost %v",
					seed, name, res.Cost, g.TotalCost(res.Selection))
			}
		}
	}
	if feasible == 0 {
		t.Fatal("no solver found a feasible selection on any graph")
	}
}

// overflowGraph is a 9-vertex, 3-color graph whose entries are 0, 0.5,
// 2e307 and ∞, so that some selections of finite entries sum to ∞.
func overflowGraph(seed int64) *pbqp.Graph {
	const n, m = 9, 3
	values := []cost.Cost{0, 0.5, 2e307, cost.Inf}
	rng := rand.New(rand.NewSource(seed))
	g := pbqp.New(n, m)
	for u := 0; u < n; u++ {
		vec := cost.NewVector(m)
		for i := range vec {
			vec[i] = values[rng.Intn(len(values))]
		}
		g.SetVertexCost(u, vec)
		if v := rng.Intn(n); v != u && rng.Intn(2) == 0 {
			mat := cost.NewMatrix(m, m)
			mat.Set(rng.Intn(m), rng.Intn(m), values[rng.Intn(len(values))])
			g.AddEdgeCost(u, v, mat)
		}
	}
	return g
}

// TestCompleteSearchesPassOverflowingSelections: liberty and rl-bt are
// complete searches, so they must find a selection of finite cost
// wherever brute does, even when the first selection of finite entries
// they reach sums to ∞; both used to report none there.
func TestCompleteSearchesPassOverflowingSelections(t *testing.T) {
	solvers := map[string]solve.Solver{
		"liberty": liberty.Solver{},
		"rl-bt":   &rl.Solver{Net: mcts.Uniform{}, Cfg: rl.Config{K: 1, Order: game.OrderDecLiberty, Backtrack: true}},
	}
	for seed := int64(1); seed <= 12; seed++ {
		g := overflowGraph(seed)
		want := brute.Solver{}.Solve(g).Feasible
		for name, s := range solvers {
			if got := s.Solve(g).Feasible; got != want {
				t.Errorf("seed %d: %s feasible = %v, brute %v", seed, name, got, want)
			}
		}
	}
}
