package scholz

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"pbqprl/internal/cost"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/randgraph"
	"pbqprl/internal/reduce"
	"pbqprl/internal/solve"
)

// reuseGraphs is a shuffled sequence of inputs whose sizes and color
// counts jump up and down, so every workspace is restarted on graphs
// both larger and smaller than its last: n from 0 to 80, m cycling
// through 1, 2, 4 and 13, infinite entries, negative diagonals (the
// coalescing hints of a register allocator), all-zero costs whose R2
// folds sum to zero and drop their edge, a removed vertex, and the
// renumbered subgraphs Induced makes of them.
func reuseGraphs(rng *rand.Rand) []*pbqp.Graph {
	ms := []int{1, 2, 4, 13}
	var gs []*pbqp.Graph
	for n := 0; n <= 80; n++ {
		m := ms[n%len(ms)]
		g := pbqp.New(n, m)
		zero := n%5 == 2
		entry := func() cost.Cost {
			switch {
			case zero:
				return 0
			case rng.Float64() < 0.08:
				return cost.Inf
			}
			return cost.Cost(rng.Float64() * 10)
		}
		for u := 0; u < n; u++ {
			vec := make(cost.Vector, m)
			for i := range vec {
				vec[i] = entry()
			}
			g.SetVertexCost(u, vec)
		}
		p := 4.5 / float64(max(n, 1))
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() >= p {
					continue
				}
				mat := cost.NewMatrix(m, m)
				for i := range mat.Data {
					mat.Data[i] = entry()
				}
				if n%3 == 1 {
					for i := 0; i < m; i++ {
						mat.Set(i, i, cost.Cost(-rng.Float64()*4))
					}
				}
				g.SetEdgeCost(u, v, mat)
			}
		}
		if n%4 == 3 {
			g.RemoveVertex(rng.Intn(n))
		}
		gs = append(gs, g)
		if n%6 == 5 {
			vs := g.Vertices()
			rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
			gs = append(gs, g.Induced(vs[:len(vs)-1]))
		}
	}
	gs = append(gs, randgraph.LargeSparse(rng, randgraph.LargeSparseConfig{N: 60, M: 4, Components: 3, ClusterSize: 8, Chords: 2, PInf: 0.05}))
	rng.Shuffle(len(gs), func(i, j int) { gs[i], gs[j] = gs[j], gs[i] })
	return gs
}

// freshSolve is SolveCtx without a deadline, driven on a reduction
// allocated for this one solve: what a pooled solve must equal.
func freshSolve(g *pbqp.Graph) solve.Result {
	red := new(reduce.Reduction)
	red.Restart(g, true)
	var states int64
	for red.Graph.AliveCount() > 0 {
		states++
		red.Step(false)
	}
	sel, feasible := red.Expand(make(pbqp.Selection, g.NumVertices()))
	total := g.TotalCost(sel)
	return solve.Result{Selection: sel, Cost: total, Feasible: feasible && !total.IsInf(), States: states}
}

func sameResult(got, want solve.Result) error {
	if !slices.Equal(got.Selection, want.Selection) ||
		math.Float64bits(float64(got.Cost)) != math.Float64bits(float64(want.Cost)) ||
		got.States != want.States || got.Feasible != want.Feasible || got.Truncated != want.Truncated {
		return fmt.Errorf("got (sel %v cost %v states %d feasible %v truncated %v), fresh reduction (sel %v cost %v states %d feasible %v truncated %v)",
			got.Selection, got.Cost, got.States, got.Feasible, got.Truncated,
			want.Selection, want.Cost, want.States, want.Feasible, want.Truncated)
	}
	return nil
}

// fingerprint is the canonical hash of g's alive part: a graph with a
// removed vertex has no canonical form of its own.
func fingerprint(t *testing.T, g *pbqp.Graph) [32]byte {
	t.Helper()
	h, err := pbqp.CanonicalHash(g.Induced(g.Vertices()))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestScholzReusesWorkspaceExactly runs one shuffled sequence through
// the pooled solver, where every workspace is restarted on whatever the
// last solve left in it, and holds each result to a fresh reduction's
// bit for bit: selection, cost bits, states, feasibility, truncation.
// The goldens solve their graphs in one fixed order and cannot see
// state a reused workspace carries over. Then four goroutines run the
// sequence at once on the same inputs, which must come out unchanged.
func TestScholzReusesWorkspaceExactly(t *testing.T) {
	gs := reuseGraphs(rand.New(rand.NewSource(51)))
	want := make([]solve.Result, len(gs))
	hashes := make([][32]byte, len(gs))
	for i, g := range gs {
		want[i] = freshSolve(g)
		hashes[i] = fingerprint(t, g)
	}
	for i, g := range gs {
		if err := sameResult(Solver{}.Solve(g), want[i]); err != nil {
			t.Fatalf("graph %d (n=%d m=%d), solved in sequence: %v", i, g.NumVertices(), g.M(), err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range gs {
				i := (k + w*len(gs)/4) % len(gs)
				if err := sameResult(Solver{}.Solve(gs[i]), want[i]); err != nil {
					t.Errorf("goroutine %d, graph %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for i, g := range gs {
		if fingerprint(t, g) != hashes[i] {
			t.Errorf("graph %d: input changed by the solves", i)
		}
	}
}

// TestScholzSteadyStateAllocs pins the pooled solve of the 12-vertex
// cluster with its anchor pinned, the block decomp(scholz) solves once
// per anchor color of every block, at the two selections it returns
// (make and Expand's copy): the reduction itself allocates nothing once
// a workspace is warm (74 allocations a solve before workspaces). Under
// -race sync.Pool drops a quarter of its Puts at random, and each lost
// workspace costs a cold start, so the bound is not checked there.
func TestScholzSteadyStateAllocs(t *testing.T) {
	g := randgraph.LargeSparse(rand.New(rand.NewSource(1)),
		randgraph.LargeSparseConfig{N: 12, M: 4, ClusterSize: 12, Chords: 4})
	g.SetVertexCost(0, cost.Vector{0, cost.Inf, cost.Inf, cost.Inf})
	if res := (Solver{}).Solve(g); !res.Feasible {
		t.Fatal("pinned cluster infeasible")
	}
	allocs := testing.AllocsPerRun(100, func() { Solver{}.Solve(g) })
	t.Logf("pooled pinned-cluster solve: %.1f allocations", allocs)
	if raceEnabled() {
		t.Skip("sync.Pool drops Puts under -race; bound not checked")
	}
	if allocs > 2 {
		t.Fatalf("pooled pinned-cluster solve allocates %.1f times, want ≤ 2", allocs)
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}
