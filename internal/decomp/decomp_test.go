package decomp

import (
	"context"
	"maps"
	"math/rand"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"pbqprl/internal/cost"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/randgraph"
	"pbqprl/internal/solve"
	"pbqprl/internal/solve/brute"
	"pbqprl/internal/solve/scholz"
)

// intGraph builds a random integer-cost graph (costs in {0..6, ∞}) so
// optimal total costs are exact integers and bit-identical across any
// two optimal selections.
func intGraph(rng *rand.Rand, n, m int, pEdge, pInf float64) *pbqp.Graph {
	g := pbqp.New(n, m)
	entry := func() cost.Cost {
		if rng.Float64() < pInf {
			return cost.Inf
		}
		return cost.Cost(rng.Intn(7))
	}
	for u := 0; u < n; u++ {
		vec := make(cost.Vector, m)
		for c := range vec {
			vec[c] = entry()
		}
		if vec.AllInf() {
			vec[rng.Intn(m)] = cost.Cost(rng.Intn(7))
		}
		g.SetVertexCost(u, vec)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() >= pEdge {
				continue
			}
			mat := cost.NewMatrix(m, m)
			for i := range mat.Data {
				mat.Data[i] = entry()
			}
			if mat.IsZero() {
				mat.Set(rng.Intn(m), rng.Intn(m), cost.Cost(1+rng.Intn(6)))
			}
			g.SetEdgeCost(u, v, mat)
		}
	}
	return g
}

// cliqueChain builds k size-s cliques where consecutive cliques share
// one vertex: every shared vertex is an articulation point and (for
// s ≥ 4) nothing reduces, so the block solver does all the work.
func cliqueChain(rng *rand.Rand, k, s, m int) *pbqp.Graph {
	n := k*(s-1) + 1
	g := intGraph(rng, n, m, 0, 0) // vertices with finite costs, no edges yet
	mat := func() *cost.Matrix {
		mt := cost.NewMatrix(m, m)
		for i := range mt.Data {
			mt.Data[i] = cost.Cost(rng.Intn(7))
		}
		if mt.IsZero() {
			mt.Set(rng.Intn(m), rng.Intn(m), cost.Cost(1+rng.Intn(6)))
		}
		return mt
	}
	for c := 0; c < k; c++ {
		base := c * (s - 1)
		for i := 0; i < s; i++ {
			for j := i + 1; j < s; j++ {
				g.SetEdgeCost(base+i, base+j, mat())
			}
		}
	}
	return g
}

func checkAgainstBrute(t *testing.T, g *pbqp.Graph, workers int) {
	t.Helper()
	exact := brute.Solver{}.Solve(g)
	d := Wrap(brute.Solver{})
	d.Workers = workers
	res := d.SolveCtx(context.Background(), g)
	if res.Feasible != exact.Feasible {
		t.Fatalf("decomp feasible=%v, brute feasible=%v\n%s", res.Feasible, exact.Feasible, g)
	}
	if res.Truncated {
		t.Fatalf("decomp truncated without a deadline\n%s", g)
	}
	if !res.Feasible {
		return
	}
	if got := g.TotalCost(res.Selection); got != res.Cost {
		t.Fatalf("decomp selection re-evaluates to %v, reported %v\n%s", got, res.Cost, g)
	}
	if res.Cost != exact.Cost {
		t.Fatalf("decomp cost %v, optimum %v (stats %v)\n%s", res.Cost, exact.Cost, res.Stats, g)
	}
}

// TestDecompAgreesWithBruteRandom: on random small graphs — dense,
// sparse, disconnected — decomp.Wrap(brute) must reproduce the brute
// optimum bit-for-bit.
func TestDecompAgreesWithBruteRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(10)
		m := 1 + rng.Intn(3)
		pEdge := rng.Float64() * 0.7
		g := intGraph(rng, n, m, pEdge, 0.12)
		checkAgainstBrute(t, g, 1)
	}
}

// TestDecompAgreesWithBruteArticulation: clique chains put every block
// behind an articulation point, so the per-color folding path is what
// produces the optimum.
func TestDecompAgreesWithBruteArticulation(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 60; trial++ {
		g := cliqueChain(rng, 2+rng.Intn(3), 4, 2)
		checkAgainstBrute(t, g, 1)
	}
}

// TestDecompAgreesWithBruteDisconnected: several independent clique
// chains, solved with and without component parallelism.
func TestDecompAgreesWithBruteDisconnected(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 30; trial++ {
		a := cliqueChain(rng, 2, 4, 2)
		b := cliqueChain(rng, 3, 4, 2)
		na, nb := a.NumVertices(), b.NumVertices()
		g := pbqp.New(na+nb, 2)
		for u := 0; u < na; u++ {
			g.SetVertexCost(u, a.VertexCost(u))
		}
		for u := 0; u < nb; u++ {
			g.SetVertexCost(na+u, b.VertexCost(u))
		}
		for _, e := range a.Edges() {
			g.SetEdgeCost(e.U, e.V, e.M)
		}
		for _, e := range b.Edges() {
			g.SetEdgeCost(na+e.U, na+e.V, e.M)
		}
		checkAgainstBrute(t, g, 1)
		checkAgainstBrute(t, g, 4)
	}
}

// TestDecompParallelDeterminism: component-parallel solving must be
// bit-identical to sequential, selection included.
func TestDecompParallelDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 10; trial++ {
		// Many components: disjoint union of clique chains.
		chains := make([]*pbqp.Graph, 6)
		n := 0
		for i := range chains {
			chains[i] = cliqueChain(rng, 1+rng.Intn(3), 4, 2)
			n += chains[i].NumVertices()
		}
		g := pbqp.New(n, 2)
		base := 0
		for _, ch := range chains {
			for u := 0; u < ch.NumVertices(); u++ {
				g.SetVertexCost(base+u, ch.VertexCost(u))
			}
			for _, e := range ch.Edges() {
				g.SetEdgeCost(base+e.U, base+e.V, e.M)
			}
			base += ch.NumVertices()
		}
		seq := Wrap(brute.Solver{})
		par := Wrap(brute.Solver{})
		par.Workers = 4
		rSeq := seq.Solve(g)
		rPar := par.Solve(g)
		if rSeq.Feasible != rPar.Feasible || rSeq.Cost != rPar.Cost || rSeq.States != rPar.States {
			t.Fatalf("parallel diverged: seq (f=%v c=%v s=%d), par (f=%v c=%v s=%d)",
				rSeq.Feasible, rSeq.Cost, rSeq.States, rPar.Feasible, rPar.Cost, rPar.States)
		}
		for i := range rSeq.Selection {
			if rSeq.Selection[i] != rPar.Selection[i] {
				t.Fatalf("selections differ at vertex %d", i)
			}
		}
	}
}

// TestDecompInfeasibleComponent: one infeasible component must make
// the whole instance infeasible even when the others are fine.
func TestDecompInfeasibleComponent(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	g := cliqueChain(rng, 2, 4, 2)
	n := g.NumVertices()
	// Append a K4 whose first vertex has no finite color.
	h := pbqp.New(n+4, 2)
	for u := 0; u < n; u++ {
		h.SetVertexCost(u, g.VertexCost(u))
	}
	for _, e := range g.Edges() {
		h.SetEdgeCost(e.U, e.V, e.M)
	}
	h.SetVertexCost(n, cost.Vector{cost.Inf, cost.Inf})
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			mat := cost.NewMatrix(2, 2)
			mat.Set(0, 1, 1)
			h.SetEdgeCost(n+i, n+j, mat)
		}
	}
	checkAgainstBrute(t, h, 1)
	res := Wrap(brute.Solver{}).Solve(h)
	if res.Feasible {
		t.Fatal("infeasible component went unnoticed")
	}
}

// TestDecompInfo checks the reported statistics on a crafted instance:
// two K4s sharing a vertex (residual: 1 component, 2 blocks, 1 cut
// vertex), plus a triangle and an isolated vertex that reduce away.
func TestDecompInfo(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	core := cliqueChain(rng, 2, 4, 2) // 7 vertices, two K4 blocks
	n := core.NumVertices()
	g := pbqp.New(n+4, 2)
	for u := 0; u < n; u++ {
		g.SetVertexCost(u, core.VertexCost(u))
	}
	for _, e := range core.Edges() {
		g.SetEdgeCost(e.U, e.V, e.M)
	}
	// Triangle n..n+2 (reduces via R2/R1/R0) and isolated n+3 (R0).
	tri := cost.NewMatrix(2, 2)
	tri.Set(0, 0, 2)
	g.SetVertexCost(n, cost.Vector{1, 0})
	g.SetVertexCost(n+1, cost.Vector{0, 1})
	g.SetVertexCost(n+2, cost.Vector{3, 1})
	g.SetEdgeCost(n, n+1, tri)
	g.SetEdgeCost(n+1, n+2, tri)
	g.SetEdgeCost(n, n+2, tri)
	g.SetVertexCost(n+3, cost.Vector{2, 5})

	res := Wrap(brute.Solver{}).SolveCtx(context.Background(), g)
	if !res.Feasible {
		t.Fatal("crafted instance should be feasible")
	}
	want := map[string]float64{
		"original_vertices":      float64(n + 4),
		"eliminated_vertices":    4,
		"residual_vertices":      float64(n),
		"components":             1,
		"blocks":                 2,
		"largest_block_vertices": 4,
		"cut_vertices":           1,
	}
	got := maps.Clone(res.Stats)
	maps.DeleteFunc(got, func(k string, _ float64) bool { return strings.HasSuffix(k, "_s") }) // wall time, checked in TestDecompStageSeconds
	if !maps.Equal(got, want) {
		t.Fatalf("stats %v, want %v", got, want)
	}
	if _, info := Wrap(brute.Solver{}).SolveWithInfo(context.Background(), g); info != (Info{Blocks: 2, LargestBlock: 4}) {
		t.Fatalf("SolveWithInfo reads back %+v, want 2 blocks, the largest of 4", info)
	}
	checkAgainstBrute(t, g, 1)
}

// TestDecompCancelled: an expired context truncates immediately.
func TestDecompCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	g := cliqueChain(rng, 3, 4, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := Wrap(brute.Solver{}).SolveCtx(ctx, g)
	if !res.Truncated || res.Feasible {
		t.Fatalf("cancelled solve: truncated=%v feasible=%v, want true/false", res.Truncated, res.Feasible)
	}
}

// cancelOnFirst solves blocks exactly with brute and cancels the solve's
// context as it returns the first one, feasible.
type cancelOnFirst struct {
	cancel context.CancelFunc
	once   sync.Once
}

func (s *cancelOnFirst) Name() string { return "cancel-on-first" }

func (s *cancelOnFirst) Solve(g *pbqp.Graph) solve.Result {
	return s.SolveCtx(context.Background(), g)
}

func (s *cancelOnFirst) SolveCtx(_ context.Context, g *pbqp.Graph) solve.Result {
	res := brute.Solver{}.Solve(g)
	s.once.Do(s.cancel)
	return res
}

// TestDecompCancelledMidSolve: a deadline that lands after the first
// component solved feasibly truncates the rest, and the whole answer is
// truncated, not a proof of infeasibility. Sixteen components of one K4
// each keep most of them unstarted when the context is cancelled.
func TestDecompCancelledMidSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	const comps = 16
	g := pbqp.New(4*comps, 2)
	for c := 0; c < comps; c++ {
		k4 := cliqueChain(rng, 1, 4, 2)
		for u := 0; u < 4; u++ {
			g.SetVertexCost(4*c+u, k4.VertexCost(u))
		}
		for _, e := range k4.Edges() {
			g.SetEdgeCost(4*c+e.U, 4*c+e.V, e.M)
		}
	}
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		d := &Solver{Inner: &cancelOnFirst{cancel: cancel}, Workers: workers}
		res := d.SolveCtx(ctx, g)
		cancel()
		if got := res.Stats["components"]; got != comps {
			t.Fatalf("workers=%d: %v components, want %d", workers, got, comps)
		}
		if !res.Truncated || res.Feasible {
			t.Errorf("workers=%d: cancelled mid-solve: truncated=%v feasible=%v, want true/false", workers, res.Truncated, res.Feasible)
		}
	}
}

// TestDecompInputNotMutated: the wrapper must leave the caller's graph
// untouched (it clones via reduce.Apply and folds only into the clone).
func TestDecompInputNotMutated(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	g := cliqueChain(rng, 2, 4, 2)
	before := g.String()
	_ = Wrap(brute.Solver{}).Solve(g)
	if g.String() != before {
		t.Fatal("decomp mutated its input graph")
	}
}

// TestDecompScholzInner: with a heuristic inner solver the wrapper
// must stay sound — any feasible claim re-evaluates to its cost and
// never beats the optimum.
func TestDecompScholzInner(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 100; trial++ {
		g := intGraph(rng, 1+rng.Intn(10), 1+rng.Intn(3), rng.Float64()*0.7, 0.12)
		exact := brute.Solver{}.Solve(g)
		res := Wrap(scholz.Solver{}).Solve(g)
		if res.Feasible {
			if !exact.Feasible {
				t.Fatalf("decomp(scholz) feasible on an infeasible graph\n%s", g)
			}
			if got := g.TotalCost(res.Selection); got != res.Cost {
				t.Fatalf("decomp(scholz) selection re-evaluates to %v, reported %v\n%s", got, res.Cost, g)
			}
			if res.Cost.Less(exact.Cost) {
				t.Fatalf("decomp(scholz) cost %v beats the optimum %v\n%s", res.Cost, exact.Cost, g)
			}
		}
	}
}

// largeSparse is the big-graph instance the retired BenchmarkBigGraph
// gated on: 5 000 vertices in 8 components of 12-vertex clusters.
func largeSparse() *pbqp.Graph {
	return randgraph.LargeSparse(rand.New(rand.NewSource(101)), randgraph.LargeSparseConfig{
		N: 5000, M: 4, Components: 8, ClusterSize: 12, Chords: 4})
}

// TestDecompNeverLosesToScholz: per-block folds are exact, so on the
// same instance decomp(scholz) may never cost more than plain scholz
// (tiny floating-point slack), and both must be feasible.
func TestDecompNeverLosesToScholz(t *testing.T) {
	g := largeSparse()
	plain := scholz.Solver{}.Solve(g)
	dec := Wrap(scholz.Solver{}).Solve(g)
	if !plain.Feasible || !dec.Feasible {
		t.Fatalf("feasible: scholz %v, decomp(scholz) %v", plain.Feasible, dec.Feasible)
	}
	if float64(dec.Cost) > float64(plain.Cost)*(1+1e-9) {
		t.Fatalf("decomp(scholz) cost %v exceeds plain scholz %v", dec.Cost, plain.Cost)
	}
}

// TestDecompStageSeconds: the per-stage seconds are non-negative and,
// being laps of one clock, sum to no more than the wall time of the
// call that reported them.
func TestDecompStageSeconds(t *testing.T) {
	g := largeSparse()
	d := Wrap(scholz.Solver{})
	d.Workers = 2
	start := time.Now()
	st := d.SolveCtx(context.Background(), g).Stats
	wall := time.Since(start).Seconds()
	sum := 0.0
	for _, name := range []string{"reduce_s", "csr_s", "blockcut_s", "solve_s", "expand_s"} {
		s, ok := st[name]
		if !ok || s < 0 {
			t.Errorf("%s = %v (reported %v), want non-negative", name, s, ok)
		}
		sum += s
	}
	if sum <= 0 || sum > wall {
		t.Fatalf("stage seconds sum to %v, wall time %v: %v", sum, wall, st)
	}
}

func TestDecompName(t *testing.T) {
	if got := Wrap(brute.Solver{}).Name(); got != "decomp(brute)" {
		t.Fatalf("Name = %q", got)
	}
}

func TestDecompEmptyGraph(t *testing.T) {
	res := Wrap(brute.Solver{}).Solve(pbqp.New(0, 2))
	if !res.Feasible || !res.Cost.IsZero() {
		t.Fatalf("empty graph: feasible=%v cost=%v", res.Feasible, res.Cost)
	}
}

// countingScholz is scholz counting its solves.
type countingScholz struct {
	scholz.Solver
	solves *int
}

func (c countingScholz) SolveCtx(ctx context.Context, g *pbqp.Graph) solve.Result {
	*c.solves++
	return c.Solver.SolveCtx(ctx, g)
}

// TestDecompWarmSolveAllocs pins what a warm decomposed solve of a
// small LargeSparse graph allocates beyond its inner solves, each of
// which returns two selections (scholz's make and Expand's copy): the
// block graphs, pins and per-color tables come from a pooled block
// workspace, so what is left is per solve — the exact reduction, the
// CSR snapshot, the block-cut scan, the selection and its expansion —
// not per block.
func TestDecompWarmSolveAllocs(t *testing.T) {
	g := randgraph.LargeSparse(rand.New(rand.NewSource(1)), randgraph.LargeSparseConfig{
		N: 240, M: 4, Components: 2, ClusterSize: 12, Chords: 4})
	solves := 0
	d := Wrap(countingScholz{solves: &solves})
	if res := d.Solve(g); !res.Feasible {
		t.Fatal("infeasible")
	}
	perSolve := solves
	allocs := testing.AllocsPerRun(20, func() { d.Solve(g) })
	own := allocs - float64(2*perSolve)
	t.Logf("warm decomposed solve: %.0f allocations, %d inner solves, %.0f of decomp's own", allocs, perSolve, own)
	if raceEnabled() {
		t.Skip("sync.Pool drops Puts under -race; bound not checked")
	}
	if own > 60 {
		t.Fatalf("a warm decomposed solve allocates %.0f times beyond its %d inner solves' two each, want ≤ 60", own, perSolve)
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
