package net

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"pbqprl/internal/cost"
	"pbqprl/internal/gcn"
	"pbqprl/internal/nn"
	"pbqprl/internal/randgraph"
	"pbqprl/internal/tensor"
)

func zeroInfView(seed int64, n, m int) gcn.View {
	rng := rand.New(rand.NewSource(seed))
	g, _ := randgraph.ZeroInf(rng, randgraph.ZeroInfConfig{
		N: n, M: m, PEdge: 0.4, HardRatio: 0.4, PEdgeInf: 0.3,
	})
	return graphView(g)
}

// scalarEvaluate is the reference every engine test compares against:
// the trainable pass followed by the masked softmax, which is what
// Evaluate computed before it moved onto the engine.
func scalarEvaluate(p *PBQPNet, view gcn.View) (prior tensor.Vec, value float64) {
	logits, value := p.Forward(view)
	return nn.Softmax(logits, Mask(view)), value
}

// sameBits fails the test unless (prior, value) equals the reference
// bit for bit.
func sameBits(t *testing.T, what string, prior, wantPrior tensor.Vec, value, wantValue float64) {
	t.Helper()
	if math.Float64bits(value) != math.Float64bits(wantValue) {
		t.Fatalf("%s: value %x, want %x", what, math.Float64bits(value), math.Float64bits(wantValue))
	}
	if len(prior) != len(wantPrior) {
		t.Fatalf("%s: prior length %d, want %d", what, len(prior), len(wantPrior))
	}
	for c := range prior {
		if math.Float64bits(prior[c]) != math.Float64bits(wantPrior[c]) {
			t.Fatalf("%s: prior[%d] %x, want %x", what, c, math.Float64bits(prior[c]), math.Float64bits(wantPrior[c]))
		}
	}
}

// vecView is a minimal edgeless View whose cost vectors the test
// controls exactly.
func vecView(m int, vecs ...cost.Vector) gcn.View {
	return gcn.NewView(&gcn.EdgeTable{Start: make([]int32, len(vecs)+1)}, 0, m, vecs).Freeze()
}

// TestPoolMeanSingleDivision is the golden test for the pooling fix:
// the mean channel must be the per-element sum scaled by exactly one
// division — not n per-term divisions, which cost n−1 extra roundings
// (and divides) per element and disagree with the reference in the
// last bits.
func TestPoolMeanSingleDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	m := 5
	view := vecView(m, cost.NewVector(m))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(9)
		h := make([]tensor.Vec, n)
		for v := range h {
			h[v] = make(tensor.Vec, m)
			for i := range h[v] {
				h[v][i] = rng.NormFloat64()
			}
		}
		f := tensor.NewVec(2*m + 2)
		poolInto(f, view, h)
		for i := 0; i < m; i++ {
			sum := 0.0
			for v := 0; v < n; v++ {
				sum += h[v][i]
			}
			want := sum * (1 / float64(n))
			if math.Float64bits(f[m+i]) != math.Float64bits(want) {
				t.Fatalf("trial %d col %d: pooled mean %x, want sum-then-scale %x",
					trial, i, math.Float64bits(f[m+i]), math.Float64bits(want))
			}
		}
	}
}

// TestEvaluateSaturatedVertex is the all-infinite-vertex regression:
// a vertex with no finite color must produce the all-zero prior and a
// finite value, not NaN probabilities.
func TestEvaluateSaturatedVertex(t *testing.T) {
	m := 4
	view := vecView(m,
		cost.NewInfVector(m), // next-to-color vertex: fully saturated
		cost.NewVector(m),
	)
	p := New(Config{M: m, GCNLayers: 1, Hidden: 8, Blocks: 1, Seed: 82})
	prior, value := scalarEvaluate(p, view)
	for i, pr := range prior {
		if pr != 0 || math.Signbit(pr) {
			t.Errorf("prior[%d] = %v, want +0", i, pr)
		}
	}
	if math.IsNaN(value) {
		t.Error("value is NaN")
	}
	// the engine must agree
	got, v := p.Evaluate(view)
	sameBits(t, "Evaluate", got, prior, v, value)
}

func engineTestViews(m int) []gcn.View {
	views := []gcn.View{
		testView(91, 1, m),
		testView(92, 3, m),
		testView(93, 6, m),
		testView(94, 9, m),
		zeroInfView(95, 12, m),
		zeroInfView(96, 17, m),
		testView(97, 4, m),
	}
	return views
}

// TestEvaluateBitIdenticalShuffled is the engine's property test: for
// mixed views (stand-alone graph views, a game's window view and its
// snapshot) evaluated in shuffled order, every (prior, value) pair out
// of Evaluate and EvaluateInto equals the trainable pass bit for bit,
// on a net whose memo tables are warm from every earlier trial and on a
// cold clone alike.
func TestEvaluateBitIdenticalShuffled(t *testing.T) {
	const m = 5
	p := New(Config{M: m, GCNLayers: 2, Hidden: 16, Blocks: 1, Seed: 98})
	st := zeroInfGame(89, 12, m)
	views := append(engineTestViews(m), st.View(), st.Snapshot())

	ref := p.Clone()
	wantPrior := make([]tensor.Vec, len(views))
	wantValue := make([]float64, len(views))
	for i, v := range views {
		wantPrior[i], wantValue[i] = scalarEvaluate(ref, v)
	}

	rng := rand.New(rand.NewSource(99))
	into := make(tensor.Vec, m)
	for trial := 0; trial < 20; trial++ {
		cold := p.Clone()
		for _, j := range rng.Perm(len(views))[:1+rng.Intn(len(views))] {
			prior, value := p.Evaluate(views[j])
			sameBits(t, fmt.Sprintf("trial %d warm Evaluate(view %d)", trial, j), prior, wantPrior[j], value, wantValue[j])
			value = cold.EvaluateInto(views[j], into)
			sameBits(t, fmt.Sprintf("trial %d cold EvaluateInto(view %d)", trial, j), into, wantPrior[j], value, wantValue[j])
		}
	}
}

// TestEvaluateIntoAllocFree: the single-view engine path allocates
// nothing once the scratch is warm.
func TestEvaluateIntoAllocFree(t *testing.T) {
	const m = 5
	p := New(Config{M: m, GCNLayers: 2, Hidden: 16, Blocks: 1, Seed: 100})
	view := zeroInfView(101, 14, m)
	prior := make(tensor.Vec, m)
	p.EvaluateInto(view, prior) // warm scratch and caches
	if n := testing.AllocsPerRun(50, func() {
		p.EvaluateInto(view, prior)
	}); n != 0 {
		t.Fatalf("steady-state EvaluateInto allocates %.1f times per run", n)
	}
}

// TestEvaluateEngineAfterWeightChange: training toggles and weight
// loads must invalidate the engine's weight-derived caches.
func TestEvaluateEngineAfterWeightChange(t *testing.T) {
	const m = 4
	p := New(Config{M: m, GCNLayers: 1, Hidden: 8, Blocks: 1, Seed: 102})
	q := New(Config{M: m, GCNLayers: 1, Hidden: 8, Blocks: 1, Seed: 103})
	view := testView(104, 6, m)

	prior := make(tensor.Vec, m)
	p.EvaluateInto(view, prior) // warm caches against p's initial weights

	p.CopyFrom(q)
	wantPrior, wantValue := scalarEvaluate(q, view)
	value := p.EvaluateInto(view, prior)
	sameBits(t, "after CopyFrom", prior, wantPrior, value, wantValue)
}

// TestEvaluateMismatchedViewPanics: a view whose color count does not
// match the network panics with the trainable pass's message — up
// front, never by reading a kernel out of bounds — on the goroutine
// that called Evaluate, where the portfolio's per-stage recovery lives.
// The refused evaluation leaves the engine usable.
func TestEvaluateMismatchedViewPanics(t *testing.T) {
	const m = 5
	p := New(Config{M: m, GCNLayers: 2, Hidden: 16, Blocks: 1, Seed: 106})
	good := zeroInfView(107, 12, m)
	bad := zeroInfView(9, 8, 3)
	wantPrior, wantValue := scalarEvaluate(p.Clone(), good)

	p.Evaluate(good) // warm caches
	for name, eval := range map[string]func(){
		"Forward":  func() { p.Forward(bad) },
		"Evaluate": func() { p.Evaluate(bad) },
	} {
		func() {
			defer func() {
				if pv := recover(); pv == nil || !strings.Contains(fmt.Sprint(pv), "dimension mismatch") {
					t.Errorf("%s on an M=3 view: recovered %v, want the dimension-mismatch panic", name, pv)
				}
			}()
			eval()
		}()
	}
	prior, value := p.Evaluate(good)
	sameBits(t, "after the refused view", prior, wantPrior, value, wantValue)
}
