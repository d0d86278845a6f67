package brute

import (
	"math"
	"math/rand"
	"testing"

	"pbqprl/internal/cost"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/randgraph"
)

func fig2Graph() *pbqp.Graph {
	g := pbqp.New(3, 2)
	g.SetVertexCost(0, cost.Vector{5, 2})
	g.SetVertexCost(1, cost.Vector{5, 0})
	g.SetVertexCost(2, cost.Vector{0, 0})
	g.SetEdgeCost(0, 1, cost.NewMatrixFrom([][]cost.Cost{{1, 3}, {7, 8}}))
	g.SetEdgeCost(1, 2, cost.NewMatrixFrom([][]cost.Cost{{0, 4}, {9, 6}}))
	g.SetEdgeCost(0, 2, cost.NewMatrixFrom([][]cost.Cost{{0, 2}, {5, 3}}))
	return g
}

func TestFig2Optimum(t *testing.T) {
	res := Solver{}.Solve(fig2Graph())
	if !res.Feasible {
		t.Fatal("infeasible")
	}
	if res.Cost != 11 {
		t.Errorf("optimum = %v, want 11", res.Cost)
	}
	want := pbqp.Selection{0, 0, 0}
	for i := range want {
		if res.Selection[i] != want[i] {
			t.Errorf("selection = %v, want %v", res.Selection, want)
			break
		}
	}
}

// exhaustive computes the optimum by unpruned enumeration.
func exhaustive(g *pbqp.Graph) (cost.Cost, bool) {
	n, m := g.NumVertices(), g.M()
	best := cost.Inf
	sel := make(pbqp.Selection, n)
	var rec func(int)
	rec = func(d int) {
		if d == n {
			if c := g.TotalCost(sel); c.Less(best) {
				best = c
			}
			return
		}
		for c := 0; c < m; c++ {
			sel[d] = c
			rec(d + 1)
		}
	}
	rec(0)
	return best, !best.IsInf()
}

func TestMatchesExhaustiveOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		g := randgraph.ErdosRenyi(rng, randgraph.Config{
			N: 2 + rng.Intn(6), M: 2 + rng.Intn(3), PEdge: 0.5, PInf: 0.2,
		})
		wantCost, wantFeasible := exhaustive(g)
		res := Solver{}.Solve(g)
		if res.Feasible != wantFeasible {
			t.Fatalf("trial %d: feasible = %v, want %v", trial, res.Feasible, wantFeasible)
		}
		if !wantFeasible {
			continue
		}
		if diff := float64(res.Cost - wantCost); diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("trial %d: cost = %v, want %v", trial, res.Cost, wantCost)
		}
		if got := g.TotalCost(res.Selection); !approxEq(got, res.Cost) {
			t.Fatalf("trial %d: reported cost %v but selection costs %v", trial, res.Cost, got)
		}
	}
}

func TestInfeasibleGraph(t *testing.T) {
	g := pbqp.New(2, 2)
	g.SetVertexCost(0, cost.Vector{0, 0})
	g.SetVertexCost(1, cost.Vector{0, 0})
	mat := cost.NewMatrix(2, 2)
	for i := range mat.Data {
		mat.Data[i] = cost.Inf
	}
	g.SetEdgeCost(0, 1, mat)
	res := Solver{}.Solve(g)
	if res.Feasible {
		t.Error("reported feasible for an all-inf edge")
	}
	if !res.Cost.IsInf() {
		t.Errorf("cost = %v, want inf", res.Cost)
	}
}

// TestForbiddenAbsorbsNegativeCosts: ∞ ⊕ x = ∞ for every finite x,
// negative ones included. 5e307 is infinite (above the threshold
// MaxFloat64/4, where a saturating sum of two finite costs can leave an
// entry), and a raw float sum with the finite -1e307 would bring it
// back below the threshold and make vertex 1's only color selectable.
func TestForbiddenAbsorbsNegativeCosts(t *testing.T) {
	g := pbqp.New(2, 1)
	g.SetVertexCost(0, cost.Vector{-1e307})
	g.SetVertexCost(1, cost.Vector{5e307})
	if res := (Solver{}).Solve(g); res.Feasible {
		t.Errorf("selected a forbidden color: %+v", res)
	}
}

func TestStateCounting(t *testing.T) {
	res := Solver{}.Solve(fig2Graph())
	if res.States <= 0 {
		t.Error("no states counted")
	}
	// m^1 states at minimum (first vertex alone)
	if res.States < 2 {
		t.Errorf("states = %d, implausibly low", res.States)
	}
}

func TestMaxStatesTruncates(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randgraph.ErdosRenyi(rng, randgraph.Config{N: 14, M: 4, PEdge: 0.3, PInf: 0})
	res := Solver{MaxStates: 5}.Solve(g)
	if res.States > 5+int64(g.M()) {
		t.Errorf("states = %d, cap not respected", res.States)
	}
}

func TestEmptyGraph(t *testing.T) {
	res := Solver{}.Solve(pbqp.New(0, 2))
	if !res.Feasible || res.Cost != 0 {
		t.Errorf("empty graph: %+v", res)
	}
}

func TestName(t *testing.T) {
	if (Solver{}).Name() != "brute" {
		t.Error("wrong name")
	}
}

// approxEq compares costs with a relative tolerance: solvers may sum the
// same terms in different orders. The scale is the magnitudes' sum, so
// that negative costs get a tolerance too.
func approxEq(a, b cost.Cost) bool {
	if a.IsInf() || b.IsInf() {
		return a.IsInf() == b.IsInf()
	}
	return math.Abs(float64(a-b)) <= 1e-9*(1+math.Abs(float64(a))+math.Abs(float64(b)))
}
