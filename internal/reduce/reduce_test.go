package reduce

import (
	"math/rand"
	"testing"

	"pbqprl/internal/cost"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/randgraph"
	"pbqprl/internal/solve/brute"
)

func TestTriangleReducesCompletely(t *testing.T) {
	g := pbqp.New(3, 2)
	g.SetVertexCost(0, cost.Vector{5, 2})
	g.SetVertexCost(1, cost.Vector{5, 0})
	g.SetVertexCost(2, cost.Vector{0, 0})
	g.SetEdgeCost(0, 1, cost.NewMatrixFrom([][]cost.Cost{{1, 3}, {7, 8}}))
	g.SetEdgeCost(1, 2, cost.NewMatrixFrom([][]cost.Cost{{0, 4}, {9, 6}}))
	g.SetEdgeCost(0, 2, cost.NewMatrixFrom([][]cost.Cost{{0, 2}, {5, 3}}))
	r := Apply(g)
	if r.Graph.AliveCount() != 0 || r.Eliminated != 3 {
		t.Fatalf("triangle not fully reduced: alive=%d eliminated=%d", r.Graph.AliveCount(), r.Eliminated)
	}
	sel, ok := r.Expand(make(pbqp.Selection, 3))
	if !ok {
		t.Fatal("expand infeasible")
	}
	if c := g.TotalCost(sel); c != 11 {
		t.Errorf("expanded selection costs %v, want the optimum 11", c)
	}
}

func TestReducedRemainderHasMinDegree3(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		g := randgraph.ErdosRenyi(rng, randgraph.Config{
			N: 4 + rng.Intn(12), M: 2 + rng.Intn(3), PEdge: 0.4, PInf: 0.1,
		})
		r := Apply(g)
		for _, u := range r.Graph.Vertices() {
			if r.Graph.Degree(u) < 3 {
				t.Fatalf("trial %d: vertex %d has degree %d after reduction", trial, u, r.Graph.Degree(u))
			}
		}
		if err := r.Graph.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReductionPreservesOptimum(t *testing.T) {
	// exact property: solving the reduced remainder optimally and
	// expanding yields the original optimum.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		g := randgraph.ErdosRenyi(rng, randgraph.Config{
			N: 3 + rng.Intn(8), M: 2 + rng.Intn(3), PEdge: 0.45, PInf: 0.15,
		})
		want := (brute.Solver{}).Solve(g)
		r := Apply(g)
		var sel pbqp.Selection
		feasible := true
		if r.Graph.AliveCount() > 0 {
			sub := (brute.Solver{}).Solve(r.Graph)
			feasible = sub.Feasible
			if feasible {
				sel = sub.Selection
			}
		} else {
			sel = make(pbqp.Selection, g.NumVertices())
		}
		if !feasible {
			if want.Feasible {
				t.Fatalf("trial %d: reduction made a feasible problem infeasible", trial)
			}
			continue
		}
		full, ok := r.Expand(sel)
		if ok != want.Feasible {
			t.Fatalf("trial %d: expand ok=%v, brute feasible=%v", trial, ok, want.Feasible)
		}
		if !ok {
			continue
		}
		got := g.TotalCost(full)
		d := float64(got - want.Cost)
		if d > 1e-9*(1+float64(want.Cost)) || d < -1e-9*(1+float64(want.Cost)) {
			t.Fatalf("trial %d: expanded cost %v, optimum %v", trial, got, want.Cost)
		}
	}
}

func TestInputNotMutated(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randgraph.ErdosRenyi(rng, randgraph.Config{N: 8, M: 3, PEdge: 0.4, PInf: 0.1})
	before := g.String()
	Apply(g)
	if g.String() != before {
		t.Error("Apply mutated its input")
	}
}

func TestInfeasibleIsolatedVertex(t *testing.T) {
	g := pbqp.New(1, 2)
	g.SetVertexCost(0, cost.NewInfVector(2))
	r := Apply(g)
	if _, ok := r.Expand(make(pbqp.Selection, 1)); ok {
		t.Error("expanded an infeasible problem")
	}
}

// TestForbiddenFoldsAndExpandsAsForbidden: ∞ ⊕ x = ∞ for every finite
// x, negative ones included. Vertex 0's only entry, 5e307, is infinite
// (above the threshold MaxFloat64/4, where a saturating sum of two
// finite costs can leave an entry); a raw float sum with the edge's
// -1e307 would bring it back below the threshold. R1 must fold it into
// vertex 1 as forbidden, and Expand must find no color for vertex 0.
func TestForbiddenFoldsAndExpandsAsForbidden(t *testing.T) {
	g := pbqp.New(2, 1)
	g.SetVertexCost(0, cost.Vector{5e307})
	g.SetVertexCost(1, cost.Vector{0})
	g.SetEdgeCost(0, 1, cost.NewMatrixFrom([][]cost.Cost{{-1e307}}))
	r := new(Reduction)
	r.Restart(g, false)
	if !r.Step(false) || r.Graph.Alive(0) {
		t.Fatal("the first step did not eliminate vertex 0")
	}
	if got := r.Graph.VertexCost(1)[0]; !got.IsInf() {
		t.Errorf("R1 folded the forbidden entry into vertex 1 as %v", got)
	}
	if _, ok := r.Expand(pbqp.Selection{0, 0}); ok {
		t.Error("Expand colored vertex 0 with its forbidden only color")
	}
}

func TestEmptyGraph(t *testing.T) {
	r := Apply(pbqp.New(0, 3))
	if r.Eliminated != 0 || r.Graph.AliveCount() != 0 {
		t.Error("empty graph misbehaved")
	}
	if _, ok := r.Expand(pbqp.Selection{}); !ok {
		t.Error("empty expand failed")
	}
}

func TestStarGraphR1Chain(t *testing.T) {
	// star: center 0, leaves 1..4. Leaves are R1-reduced, the center
	// becomes degree 0 and R0-reduced.
	m := 3
	g := pbqp.New(5, m)
	for v := 0; v < 5; v++ {
		vec := make(cost.Vector, m)
		for i := range vec {
			vec[i] = cost.Cost((v + i) % 4)
		}
		g.SetVertexCost(v, vec)
	}
	diag := cost.NewMatrix(m, m)
	for i := 0; i < m; i++ {
		diag.Set(i, i, cost.Inf)
	}
	for leaf := 1; leaf < 5; leaf++ {
		g.SetEdgeCost(0, leaf, diag)
	}
	want := (brute.Solver{}).Solve(g)
	r := Apply(g)
	if r.Graph.AliveCount() != 0 {
		t.Fatalf("star not fully reduced")
	}
	sel, ok := r.Expand(make(pbqp.Selection, 5))
	if !ok {
		t.Fatal("infeasible")
	}
	if got := g.TotalCost(sel); got != want.Cost {
		t.Errorf("cost %v, optimum %v", got, want.Cost)
	}
}
