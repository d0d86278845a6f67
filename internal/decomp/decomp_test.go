package decomp

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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
// untouched (its reduction works on a copy, and it folds only into that).
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

// meteredScholz is scholz counting its solves and the bytes they
// allocate. It reads the allocator's totals around every solve, so it
// is only for a decomposition that solves its blocks on one goroutine.
type meteredScholz struct {
	scholz.Solver
	solves *int
	bytes  *uint64
}

func (c meteredScholz) SolveCtx(ctx context.Context, g *pbqp.Graph) solve.Result {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := c.Solver.SolveCtx(ctx, g)
	runtime.ReadMemStats(&after)
	*c.solves++
	*c.bytes += after.TotalAlloc - before.TotalAlloc
	return res
}

// warmSparse is a LargeSparse graph of n vertices in two components
// of 12-vertex clusters, the shape of the benchmark's blocky graph.
func warmSparse(n int) *pbqp.Graph {
	return randgraph.LargeSparse(rand.New(rand.NewSource(1)), randgraph.LargeSparseConfig{
		N: n, M: 4, Components: 2, ClusterSize: 12, Chords: 4})
}

// TestDecompWarmSolveAllocs pins what a warm decomposed solve of a
// LargeSparse graph allocates beyond its inner solves, each of which
// returns two selections (scholz's make and Expand's copy): the
// reduction, the CSR snapshot, the block-cut scan, the selection, the
// block graphs, pins and per-color tables all come from a pooled
// pipeline, so what is left is per solve — the stats, the expanded
// selection, the worker hand-off — not per vertex or per block.
func TestDecompWarmSolveAllocs(t *testing.T) {
	for _, n := range []int{240, 2400} {
		g := warmSparse(n)
		solves := 0
		d := Wrap(countingScholz{solves: &solves})
		if res := d.Solve(g); !res.Feasible {
			t.Fatal("infeasible")
		}
		perSolve := solves
		allocs := testing.AllocsPerRun(20, func() { d.Solve(g) })
		own := allocs - float64(2*perSolve)
		t.Logf("n=%d: warm decomposed solve: %.0f allocations, %d inner solves, %.0f of decomp's own", n, allocs, perSolve, own)
		if raceEnabled() {
			t.Skip("sync.Pool drops Puts under -race; bound not checked")
		}
		if own > 16 {
			t.Fatalf("n=%d: a warm decomposed solve allocates %.0f times beyond its %d inner solves' two each, want ≤ 16", n, own, perSolve)
		}
	}
}

// TestDecompWarmSolveBytes pins the bytes a warm decomposed solve
// allocates beyond what its inner solves allocate: a constant (the
// stats, the worker hand-off) and the expanded selection, 8 bytes a
// vertex. Two sizes ten times apart keep per-vertex storage from
// hiding in the constant.
func TestDecompWarmSolveBytes(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops Puts under -race; bound not checked")
	}
	const runs = 10
	for _, n := range []int{240, 2400} {
		g := warmSparse(n)
		solves, inner := 0, uint64(0)
		d := Wrap(meteredScholz{solves: &solves, bytes: &inner})
		if res := d.Solve(g); !res.Feasible {
			t.Fatal("infeasible")
		}
		solves, inner = 0, 0
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			d.Solve(g)
		}
		runtime.ReadMemStats(&after)
		own := (after.TotalAlloc - before.TotalAlloc - inner) / runs
		limit := uint64(4096 + 2*8*g.NumVertices())
		t.Logf("n=%d: warm decomposed solve: %d bytes of decomp's own (%.1f a vertex), %d of its %d inner solves", n, own, float64(own)/float64(n), inner/runs, solves/runs)
		if own > limit {
			t.Fatalf("n=%d: a warm decomposed solve allocates %d bytes beyond its inner solves, want ≤ %d (4 KiB and two selections)", n, own, limit)
		}
	}
}

// statsInner is brute reporting from every solve a count ("k"), a key
// of decomp's own ("blocks") and seconds that differ per block
// ("t_s"), and counting its solves.
type statsInner struct{ solves atomic.Int64 }

func (s *statsInner) Name() string { return "stats" }

func (s *statsInner) Solve(g *pbqp.Graph) solve.Result {
	return s.SolveCtx(context.Background(), g)
}

func (s *statsInner) SolveCtx(_ context.Context, g *pbqp.Graph) solve.Result {
	s.solves.Add(1)
	res := brute.Solver{}.Solve(g)
	res.Stats = map[string]float64{"k": 1, "blocks": -1, "t_s": 0.1 / float64(g.NumVertices())}
	return res
}

// TestDecompSumsInnerStats: decomp reports its inner solves' Stats
// summed per key, keeps its own value of a key the inner solver
// reports too, and sums the seconds to the same bits whether the
// components solve on one worker or on four.
func TestDecompSumsInnerStats(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	g := pbqp.New(0, 2)
	for range 6 {
		g = disjointUnion(g, cliqueChain(rng, 1+rng.Intn(3), 4, 2))
	}
	var seconds []float64
	for _, workers := range []int{1, 4} {
		inner := new(statsInner)
		res := (&Solver{Inner: inner, Workers: workers}).Solve(g)
		if !res.Feasible {
			t.Fatalf("workers=%d: infeasible", workers)
		}
		if got, want := res.Stats["k"], float64(inner.solves.Load()); got != want || want == 0 {
			t.Errorf("workers=%d: k = %v, want the %v inner solves", workers, got, want)
		}
		if res.Stats["blocks"] < 6 {
			t.Errorf("workers=%d: blocks = %v, want decomp's own count (≥ 6), not the inner sum", workers, res.Stats["blocks"])
		}
		seconds = append(seconds, res.Stats["t_s"])
	}
	if math.Float64bits(seconds[0]) != math.Float64bits(seconds[1]) {
		t.Errorf("t_s sums to %v on one worker and %v on four", seconds[0], seconds[1])
	}
}

// disjointUnion returns a graph holding a and then b, with no edge
// between them.
func disjointUnion(a, b *pbqp.Graph) *pbqp.Graph {
	na := a.NumVertices()
	g := pbqp.New(na+b.NumVertices(), b.M())
	for _, part := range []struct {
		h    *pbqp.Graph
		base int
	}{{a, 0}, {b, na}} {
		for u := 0; u < part.h.NumVertices(); u++ {
			g.SetVertexCost(part.base+u, part.h.VertexCost(u))
		}
		for _, e := range part.h.Edges() {
			g.SetEdgeCost(part.base+e.U, part.base+e.V, e.M)
		}
	}
	return g
}

// TestDecompPooledSolvesAgree: one decomp(scholz) on two workers,
// called from four goroutines at once, twenty rounds each, on small
// graphs of the benchmark's three shapes — blocky, reducible and
// module — answers every call with the selection and the cost bits of
// a cold solve on one goroutine. Pipelines and block workspaces pass
// between the calls through their pools, so a stage that read what an
// earlier solve left in one would show here.
func TestDecompPooledSolvesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	module := pbqp.New(0, 4)
	for range 8 {
		module = disjointUnion(module, intGraph(rng, 6+rng.Intn(10), 4, 0.5, 0.05))
	}
	graphs := []*pbqp.Graph{
		randgraph.LargeSparse(rng, randgraph.LargeSparseConfig{N: 300, M: 4, Components: 4, ClusterSize: 12, Chords: 4}),
		randgraph.ErdosRenyi(rng, randgraph.Config{N: 300, M: 4, PEdge: 2.2 / 300, PInf: 0.01}),
		module,
	}
	// A dead vertex takes its color from no component, so graphs 1 and 2
	// each lose one that graph 0 colors other than 0: a pooled selection
	// solved into again without being cleared would hand them that color.
	graphs[0].RemoveVertex(7)
	want := make([]solve.Result, len(graphs))
	for i, g := range graphs {
		if i > 0 {
			g.RemoveVertex(slices.IndexFunc(want[0].Selection, func(c int) bool { return c != 0 }))
		}
		runtime.GC() // twice empties the pools: every reference solves cold
		runtime.GC()
		want[i] = Wrap(scholz.Solver{}).Solve(g)
		if !want[i].Feasible {
			t.Fatalf("graph %d: infeasible", i)
		}
		t.Logf("graph %d: %v residual vertices in %v blocks", i, want[i].Stats["residual_vertices"], want[i].Stats["blocks"])
	}
	d := &Solver{Inner: scholz.Solver{}, Workers: 2}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range 20 {
				i := (w + r) % len(graphs)
				got := d.Solve(graphs[i])
				if got.Feasible != want[i].Feasible || math.Float64bits(float64(got.Cost)) != math.Float64bits(float64(want[i].Cost)) ||
					got.States != want[i].States || !slices.Equal(got.Selection, want[i].Selection) {
					errs <- fmt.Sprintf("goroutine %d round %d, graph %d: cost %v, %d states, same selection %v; cold solve %v, %d states",
						w, r, i, got.Cost, got.States, slices.Equal(got.Selection, want[i].Selection), want[i].Cost, want[i].States)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
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
