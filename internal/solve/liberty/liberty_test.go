package liberty

import (
	"maps"
	"math/rand"
	"testing"

	"pbqprl/internal/ate"
	"pbqprl/internal/cost"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/randgraph"
	"pbqprl/internal/solve/brute"
	"pbqprl/internal/solve/scholz"
)

func TestSolvesATEDerivedGraphs(t *testing.T) {
	// The headline property from TACO 2020: enumeration over hard
	// vertices finds valid solutions for real ATE problems. The
	// chronological search depends on the temporal locality that real
	// test-pattern programs have, so it is exercised on graphs derived
	// from synthetic ATE programs (not on structureless random
	// zero/inf graphs, where chronological backtracking is known to
	// blow its budget — see the package comment).
	fails := 0
	const trials = 12
	for seed := int64(500); seed < 500+trials; seed++ {
		prog, _ := ate.Generate(ate.DefaultMachine(), ate.GenConfig{
			Name: "t", NumVRegs: 40, PairRatio: 0.3, HardRatio: 0.4,
			MaxLive: 8, Seed: seed,
		})
		g, err := ate.BuildPBQP(prog)
		if err != nil {
			t.Fatal(err)
		}
		res := Solver{MaxStates: 5_000_000}.Solve(g)
		if !res.Feasible {
			fails++
			continue
		}
		if res.Cost != 0 {
			t.Fatalf("seed %d: cost = %v, want 0", seed, res.Cost)
		}
		if got := g.TotalCost(res.Selection); got != 0 {
			t.Fatalf("seed %d: selection costs %v", seed, got)
		}
	}
	if fails > trials/3 {
		t.Errorf("liberty failed %d/%d solvable ATE graphs", fails, trials)
	}
}

func TestBeatsScholzOnHardGraphs(t *testing.T) {
	// The chronological enumeration is budget-bound, so this asserts
	// the Section V-B *shape* on ATE-derived graphs: liberty solves
	// far more of them than the original solver does.
	scholzFail, libertyFail := 0, 0
	const trials = 12
	for seed := int64(700); seed < 700+trials; seed++ {
		prog, _ := ate.Generate(ate.DefaultMachine(), ate.GenConfig{
			Name: "t", NumVRegs: 45, PairRatio: 0.3, HardRatio: 0.4,
			MaxLive: 8, Seed: seed,
		})
		g, err := ate.BuildPBQP(prog)
		if err != nil {
			t.Fatal(err)
		}
		if !(scholz.Solver{}).Solve(g).Feasible {
			scholzFail++
		}
		if !(Solver{MaxStates: 5_000_000}).Solve(g).Feasible {
			libertyFail++
		}
	}
	if libertyFail >= scholzFail || libertyFail > trials/3 {
		t.Errorf("liberty failed %d/%d, scholz %d/%d; expected liberty to dominate", libertyFail, trials, scholzFail, trials)
	}
	t.Logf("failures: scholz %d/%d, liberty %d/%d (budget-bound: the search is complete but capped)", scholzFail, trials, libertyFail, trials)
}

func TestSelectionCostMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 25; trial++ {
		g := randgraph.ErdosRenyi(rng, randgraph.Config{
			N: 3 + rng.Intn(8), M: 2 + rng.Intn(4), PEdge: 0.5, PInf: 0.15,
		})
		res := Solver{}.Solve(g)
		if !res.Feasible {
			continue
		}
		if got := g.TotalCost(res.Selection); !approxEq(got, res.Cost) {
			t.Fatalf("trial %d: reported %v, selection costs %v", trial, res.Cost, got)
		}
		opt := (brute.Solver{}).Solve(g)
		if res.Cost.Less(opt.Cost) && !approxEq(res.Cost, opt.Cost) {
			t.Fatalf("trial %d: beat the optimum", trial)
		}
	}
}

func TestNeverMissesFeasibleAllHard(t *testing.T) {
	// With m ≤ Threshold every vertex is hard and enumerated: the
	// solver is then exact on feasibility.
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 30; trial++ {
		g := randgraph.ErdosRenyi(rng, randgraph.Config{
			N: 2 + rng.Intn(6), M: 2 + rng.Intn(2), PEdge: 0.6, PInf: 0.4,
		})
		opt := (brute.Solver{}).Solve(g)
		res := Solver{}.Solve(g)
		if res.Feasible != opt.Feasible {
			t.Fatalf("trial %d: feasible=%v, brute=%v", trial, res.Feasible, opt.Feasible)
		}
	}
}

func TestDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	g, _ := randgraph.ZeroInf(rng, randgraph.ZeroInfConfig{
		N: 20, M: 5, PEdge: 0.3, HardRatio: 0.5, PEdgeInf: 0.3,
	})
	before := g.String()
	Solver{}.Solve(g)
	if g.String() != before {
		t.Error("Solve mutated its input")
	}
}

func TestMaxStatesAborts(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	g, _ := randgraph.ZeroInf(rng, randgraph.ZeroInfConfig{
		N: 60, M: 13, PEdge: 0.3, HardRatio: 0.6, PEdgeInf: 0.4,
	})
	res := Solver{MaxStates: 3}.Solve(g)
	if res.States > 3+int64(g.M()) {
		t.Errorf("states = %d, cap not respected", res.States)
	}
}

func TestStatesGrowWithHardness(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	easy, _ := randgraph.ZeroInf(rng, randgraph.ZeroInfConfig{
		N: 40, M: 13, PEdge: 0.1, HardRatio: 0.1, PEdgeInf: 0.1,
	})
	hard, _ := randgraph.ZeroInf(rng, randgraph.ZeroInfConfig{
		N: 40, M: 13, PEdge: 0.3, HardRatio: 0.7, PEdgeInf: 0.35,
	})
	re := Solver{MaxStates: 10_000_000}.Solve(easy)
	rh := Solver{MaxStates: 10_000_000}.Solve(hard)
	if !re.Feasible || !rh.Feasible {
		t.Fatalf("feasibility: easy=%v hard=%v", re.Feasible, rh.Feasible)
	}
	if rh.States <= re.States {
		t.Logf("note: hard instance explored %d states vs easy %d", rh.States, re.States)
	}
}

func approxEq(a, b cost.Cost) bool {
	if a.IsInf() || b.IsInf() {
		return a.IsInf() == b.IsInf()
	}
	d := float64(a - b)
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*(1+float64(a)+float64(b))
}

func TestEmptyAndSingleton(t *testing.T) {
	if res := (Solver{}).Solve(pbqp.New(0, 3)); !res.Feasible || res.Cost != 0 {
		t.Errorf("empty graph: %+v", res)
	}
	g := pbqp.New(1, 3)
	g.SetVertexCost(0, cost.Vector{cost.Inf, 2, 5})
	res := Solver{}.Solve(g)
	if !res.Feasible || res.Cost != 2 || res.Selection[0] != 1 {
		t.Errorf("singleton: %+v", res)
	}
}

// TestStatsSplitStates: the colors tried at hard turns and the states
// of the easy-remainder approximations are disjoint parts of States on
// PRO1–PRO4, and PRO2's split is the one recorded when the counters
// were added (19 hard states; 11 approximations, 10 failed, with 242
// states between them; 271 in all).
func TestStatsSplitStates(t *testing.T) {
	for _, b := range ate.Suite()[:4] {
		res := Solver{}.Solve(b.Graph)
		st := res.Stats
		t.Logf("%s: %d states, %v", b.Program.Name, res.States, st)
		if len(st) != 4 || st["hard_states"]+st["scholz_states"] > float64(res.States) || st["scholz_failed"] > st["scholz_calls"] {
			t.Errorf("%s: stats %v do not split %d states", b.Program.Name, st, res.States)
		}
		if b.Program.Name != "PRO2" {
			continue
		}
		want := map[string]float64{"hard_states": 19, "scholz_calls": 11, "scholz_failed": 10, "scholz_states": 242}
		if res.States != 271 || !maps.Equal(st, want) {
			t.Errorf("PRO2: %d states, stats %v; want 271 and %v", res.States, st, want)
		}
	}
}
