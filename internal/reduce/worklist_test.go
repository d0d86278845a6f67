package reduce

import (
	"fmt"
	"math/rand"
	"testing"

	"pbqprl/internal/cost"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/randgraph"
	"pbqprl/internal/solve/brute"
)

// referenceRun is the original full-scan formulation of the engine: pick
// the (degree, id)-minimum alive vertex by scanning the whole graph each
// step, stop at the first vertex above degree 2 unless rn, and from step
// rnFrom on color by RN whatever the degree (scholz past its deadline).
// The worklist heap behind Restart/Step must reproduce its elimination
// sequence exactly.
func referenceRun(g *pbqp.Graph, rn bool, rnFrom int) *Reduction {
	w := g.Clone()
	red := &Reduction{Graph: w}
	lowest := func() int {
		best, bestDeg := -1, 0
		for _, u := range w.Vertices() {
			if d := w.Degree(u); best == -1 || d < bestDeg {
				best, bestDeg = u, d
			}
		}
		return best
	}
	for {
		u := lowest()
		if u < 0 || (!rn && w.Degree(u) > 2) {
			return red
		}
		ns := w.Neighbors(u)
		switch d := w.Degree(u); {
		case d > 2 || red.Eliminated >= rnFrom:
			red.stack = append(red.stack, red.reduceRN(u, ns))
		case d == 0:
			red.stack = append(red.stack, record{u: u, vec: w.VertexCost(u).Clone()})
			w.RemoveVertex(u)
		case d == 1:
			red.stack = append(red.stack, red.reduceR1(u, ns))
		default:
			red.stack = append(red.stack, red.reduceR2(u, ns))
		}
		red.Eliminated++
	}
}

// heapRun drives Restart/Step, on a new Reduction, the way Apply (rn
// false) and scholz (rn true, forcing RN from step rnFrom on) do.
func heapRun(g *pbqp.Graph, rn bool, rnFrom int) *Reduction {
	red := new(Reduction)
	red.Restart(g, rn)
	for red.Step(red.Eliminated >= rnFrom) {
	}
	return red
}

// worklistGraphs is the shape mix the order pin runs on: small random
// ER graphs, the clustered LargeSparse generator, a chain of cliques
// sharing cut vertices, and a graph that is mostly isolated vertices.
func worklistGraphs(rng *rand.Rand) []*pbqp.Graph {
	var gs []*pbqp.Graph
	for trial := 0; trial < 200; trial++ {
		gs = append(gs, randgraph.ErdosRenyi(rng, randgraph.Config{
			N:     1 + rng.Intn(14),
			M:     1 + rng.Intn(3),
			PEdge: rng.Float64() * 0.6,
			PInf:  0.05,
		}))
	}
	for trial := 0; trial < 4; trial++ {
		gs = append(gs, randgraph.LargeSparse(rng, randgraph.LargeSparseConfig{
			N: 150 + rng.Intn(150), M: 3, Components: 1 + rng.Intn(4), ClusterSize: 4 + rng.Intn(8), Chords: rng.Intn(4)}))
	}
	const cliques, size = 5, 5
	chain := pbqp.New(cliques*(size-1)+1, 3)
	for c := 0; c < cliques; c++ {
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				mat := cost.NewMatrix(3, 3)
				for k := range mat.Data {
					mat.Data[k] = cost.Cost(rng.Intn(9))
				}
				chain.AddEdgeCost(c*(size-1)+i, c*(size-1)+j, mat)
			}
		}
	}
	gs = append(gs, chain)
	sparse := randgraph.ErdosRenyi(rng, randgraph.Config{N: 60, M: 3, PEdge: 0.01, PInf: 0.05})
	sparse.RemoveVertex(7) // a dead vertex must never be queued
	return append(gs, sparse)
}

// TestWorklistMatchesReferenceOrder checks that the heap-driven engine
// is observationally identical to the full-scan reference in all three
// of its uses — exact reduction to the fixpoint (Apply), R0/R1/R2/RN to
// the empty graph (scholz), and scholz degrading to pure RN from the
// start or midway: same elimination sequence (vertex, reduction and RN
// color, in order), same residual bytes, same expanded selection.
func TestWorklistMatchesReferenceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for gi, g := range worklistGraphs(rng) {
		for _, mode := range []struct {
			name   string
			rn     bool
			rnFrom int
		}{
			{"exact", false, g.NumVertices() + 1},
			{"scholz", true, g.NumVertices() + 1},
			{"pure-rn", true, 0},
			{"rn-midway", true, g.NumVertices() / 3},
		} {
			got, want := heapRun(g, mode.rn, mode.rnFrom), referenceRun(g, mode.rn, mode.rnFrom)
			if got.Eliminated != want.Eliminated || len(got.stack) != len(want.stack) {
				t.Fatalf("graph %d %s: eliminated %d in %d records, reference %d in %d\n%s",
					gi, mode.name, got.Eliminated, len(got.stack), want.Eliminated, len(want.stack), g)
			}
			for i := range got.stack {
				a, b := got.stack[i], want.stack[i]
				if a.u != b.u || (a.vec == nil) != (b.vec == nil) || len(a.nbrs) != len(b.nbrs) || a.chosen != b.chosen {
					t.Fatalf("graph %d %s step %d: (u=%d rn=%v nbrs=%d color=%d), reference (u=%d rn=%v nbrs=%d color=%d)\n%s",
						gi, mode.name, i, a.u, a.vec == nil, len(a.nbrs), a.chosen, b.u, b.vec == nil, len(b.nbrs), b.chosen, g)
				}
			}
			if got.Graph.String() != want.Graph.String() {
				t.Fatalf("graph %d %s: residuals differ\nworklist:\n%s\nreference:\n%s", gi, mode.name, got.Graph, want.Graph)
			}
			if mode.rn && got.Graph.AliveCount() != 0 {
				t.Fatalf("graph %d %s: %d vertices left with RN enabled", gi, mode.name, got.Graph.AliveCount())
			}
			seed := make(pbqp.Selection, g.NumVertices())
			gotSel, gotOK := got.Expand(seed)
			wantSel, wantOK := want.Expand(seed)
			if gotOK != wantOK || fmt.Sprint(gotSel) != fmt.Sprint(wantSel) {
				t.Fatalf("graph %d %s: expanded %v (ok %v), reference %v (ok %v)", gi, mode.name, gotSel, gotOK, wantSel, wantOK)
			}
		}
	}
}

// TestExpandFullyDisconnected covers Expand when the whole input is
// edgeless: every vertex is R0-eliminated, the residual is empty, and
// Expand alone must recover the per-vertex minima.
func TestExpandFullyDisconnected(t *testing.T) {
	g := pbqp.New(6, 3)
	var want cost.Cost
	for u := 0; u < 6; u++ {
		vec := cost.Vector{cost.Cost(u + 3), cost.Cost(u % 2), cost.Cost(5)}
		if u == 4 {
			vec = cost.Vector{cost.Inf, cost.Cost(2), cost.Inf}
		}
		g.SetVertexCost(u, vec)
		min, _ := vec.Min()
		want = want.Add(min)
	}
	red := Apply(g)
	if red.Graph.AliveCount() != 0 {
		t.Fatalf("edgeless graph left %d residual vertices", red.Graph.AliveCount())
	}
	if red.Eliminated != 6 {
		t.Fatalf("eliminated %d of 6", red.Eliminated)
	}
	sel, ok := red.Expand(make(pbqp.Selection, g.NumVertices()))
	if !ok {
		t.Fatal("expansion failed on a feasible edgeless graph")
	}
	if got := g.TotalCost(sel); got != want {
		t.Fatalf("expanded cost %v, want sum of minima %v", got, want)
	}
	exact := brute.Solver{}.Solve(g)
	if !exact.Feasible || exact.Cost != want {
		t.Fatalf("oracle disagrees: feasible=%v cost=%v want %v", exact.Feasible, exact.Cost, want)
	}
}

// TestExpandFullyDisconnectedInfeasible: an all-infinite isolated
// vertex makes the problem infeasible, and Expand must say so even
// though the residual (empty) is trivially solvable.
func TestExpandFullyDisconnectedInfeasible(t *testing.T) {
	g := pbqp.New(3, 2)
	g.SetVertexCost(0, cost.Vector{1, 2})
	g.SetVertexCost(1, cost.Vector{cost.Inf, cost.Inf})
	g.SetVertexCost(2, cost.Vector{0, 4})
	red := Apply(g)
	if red.Graph.AliveCount() != 0 {
		t.Fatalf("edgeless graph left %d residual vertices", red.Graph.AliveCount())
	}
	if _, ok := red.Expand(make(pbqp.Selection, g.NumVertices())); ok {
		t.Fatal("expansion succeeded despite an all-infinite isolated vertex")
	}
}
