package gcn

import (
	"math"
	"math/rand"
	"testing"

	"pbqprl/internal/cost"
	"pbqprl/internal/randgraph"
	"pbqprl/internal/tensor"
)

func zeroInfView(seed int64, n, m int) View {
	rng := rand.New(rand.NewSource(seed))
	g, _ := randgraph.ZeroInf(rng, randgraph.ZeroInfConfig{
		N: n, M: m, PEdge: 0.4, HardRatio: 0.4, PEdgeInf: 0.3,
	})
	return graphView(g)
}

func TestBuildKernelKinds(t *testing.T) {
	mk := func(vals ...float64) *tensor.Mat {
		m := tensor.NewMat(2, 2)
		copy(m.W, vals)
		return m
	}
	const d = infFeature
	mk3 := func(vals ...float64) *tensor.Mat {
		m := tensor.NewMat(3, 3)
		copy(m.W, vals)
		return m
	}
	cases := []struct {
		mat  *tensor.Mat
		kind int
	}{
		{mk(0, 0, 0, 0), kZero},
		{mk(infFeature, 0, 0, 0), kBinary},
		{mk(infFeature, 0, 0, infFeature), kDiag},
		{mk(0.5, 0, 0, 0), kSparse},
		{mk(infFeature, 0.5, 0, 0), kSparse},
		{mk(0.5, 0.25, 0.125, 0), kDense},
		{mk(infFeature, infFeature, infFeature, 0), kDense},
		{mk3(d, 0, 0, 0, d, 0, 0, 0, d), kDiag},                            // the interference diagonal
		{mk3(d, 0, 0, 0, 0, 0, 0, 0, d), kBinary},                          // one diagonal entry 0
		{mk3(d, 0, 0, 0, d, d, 0, 0, d), kBinary},                          // one off-diagonal infFeature beside it
		{mk3(0.5, 0, 0, 0, 0.5, 0, 0, 0, 0.5), kSparse},                    // a finite diagonal
		{&tensor.Mat{R: 2, C: 3, W: []float64{d, 0, 0, 0, d, 0}}, kBinary}, // not square
	}
	for i, c := range cases {
		if k := Pack(c.mat); k.kind != c.kind {
			t.Errorf("case %d: kind = %d, want %d", i, k.kind, c.kind)
		}
	}

	// PackCost indexes the cost matrix's nonzeros: a 5e-324 transforms
	// to 0 but stays in its row's columns, which makes the kernel sparse
	c := cost.NewMatrixFrom([][]cost.Cost{{cost.Inf, 5e-324}, {0, 0}})
	k := PackCost(c)
	if k.kind != kSparse || len(k.Cols(0)) != 2 || len(k.Cols(1)) != 0 || k.mat.At(0, 1) != 0 {
		t.Errorf("∞ beside 5e-324: kind %d, columns %v and %v", k.kind, k.Cols(0), k.Cols(1))
	}
}

// TestKernelAddMulVecBitIdentical drives every kernel kind against the
// scalar AddMulVec it replaces, accumulating twice into the same
// destination the way the message pass does.
func TestKernelAddMulVecBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		r := 1 + rng.Intn(9)
		c := 1 + rng.Intn(9)
		m := tensor.NewMat(r, c)
		switch trial % 4 {
		case 0: // zero matrix
		case 1: // binary {0, infFeature}
			for i := range m.W {
				if rng.Float64() < 0.3 {
					m.W[i] = infFeature
				}
			}
		case 2: // sparse general values
			for i := range m.W {
				if rng.Float64() < 0.3 {
					m.W[i] = rng.NormFloat64()
				}
			}
		default: // dense
			for i := range m.W {
				m.W[i] = rng.NormFloat64()
			}
		}
		x := make(tensor.Vec, c)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make(tensor.Vec, r)
		got := make(tensor.Vec, r)
		k := Pack(m)
		for pass := 0; pass < 2; pass++ {
			m.AddMulVec(want, x)
			k.addMulVec(got, x)
		}
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("trial %d (kind %d) row %d: got %x want %x",
					trial, k.kind, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}

	// the diagonal, on the inputs where 2·x[i] and 2·(+0.0 + x[i]) could
	// part: signed zeros, subnormals and units
	special := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 0x1p-1050, 1, -1}
	for r := 1; r <= 13; r++ {
		m := tensor.NewMat(r, r)
		for i := 0; i < r; i++ {
			m.Set(i, i, infFeature)
		}
		k := Pack(m)
		if k.kind != kDiag {
			t.Fatalf("%d×%d diagonal: kind %d", r, r, k.kind)
		}
		for trial := 0; trial < 50; trial++ {
			want, got := make(tensor.Vec, r), make(tensor.Vec, r)
			for pass := 0; pass < 2; pass++ {
				x := make(tensor.Vec, r)
				for i := range x {
					x[i] = special[rng.Intn(len(special))]
				}
				m.AddMulVec(want, x)
				k.addMulVec(got, x)
			}
			for i := range want {
				if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
					t.Fatalf("%d×%d diagonal, trial %d, row %d: got %x want %x",
						r, r, trial, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}

// TestInferBitIdenticalToForward is the engine's core contract: Infer
// equals Forward bit for bit, across mixed finite/infinite graphs,
// zero/infinity graphs, every n mod 4 residue, and repeated calls on
// one Scratch so the slot and memo hit paths are exercised.
func TestInferBitIdenticalToForward(t *testing.T) {
	sc := &Scratch{}
	views := []View{
		testView(t, 41, 1, 3),
		testView(t, 42, 2, 3),
		testView(t, 43, 5, 4),
		testView(t, 44, 8, 4),
		testView(t, 45, 11, 5),
		zeroInfView(46, 13, 6),
		zeroInfView(47, 19, 6),
	}
	for vi, view := range views {
		g := New(rand.New(rand.NewSource(int64(50+vi))), view.M(), 3)
		sc.InvalidateWeights() // the scratch switches networks: drop weight-derived caches
		want := g.Forward(view)
		for pass := 0; pass < 2; pass++ { // second pass runs fully cached
			got := g.Infer(view, sc)
			if len(got) != len(want) {
				t.Fatalf("view %d: %d vectors, want %d", vi, len(got), len(want))
			}
			for v := range want {
				for i := range want[v] {
					if math.Float64bits(want[v][i]) != math.Float64bits(got[v][i]) {
						t.Fatalf("view %d pass %d vertex %d col %d: got %x want %x",
							vi, pass, v, i, math.Float64bits(got[v][i]), math.Float64bits(want[v][i]))
					}
				}
			}
		}
	}
}

// TestInferAllocFree: once the scratch is sized and the caches warm,
// Infer allocates nothing.
func TestInferAllocFree(t *testing.T) {
	view := zeroInfView(61, 16, 6)
	g := New(rand.New(rand.NewSource(62)), 6, 3)
	sc := &Scratch{}
	g.Infer(view, sc) // size buffers, build kernels, fill h⁰ cache
	if n := testing.AllocsPerRun(50, func() {
		g.Infer(view, sc)
	}); n != 0 {
		t.Fatalf("steady-state Infer allocates %.1f times per run", n)
	}
}

// TestInferInvalidateWeights: after a weight update the h⁰ cache is
// stale; InvalidateWeights restores bit-identity with Forward.
func TestInferInvalidateWeights(t *testing.T) {
	view := testView(t, 71, 7, 4)
	g := New(rand.New(rand.NewSource(72)), 4, 2)
	sc := &Scratch{}
	g.Infer(view, sc) // warm the h⁰ cache against the original weights

	for i := range g.win.W {
		g.win.W[i] += 0.125
	}
	sc.InvalidateWeights()

	want := g.Forward(view)
	got := g.Infer(view, sc)
	for v := range want {
		for i := range want[v] {
			if math.Float64bits(want[v][i]) != math.Float64bits(got[v][i]) {
				t.Fatalf("vertex %d col %d: got %x want %x after weight change",
					v, i, math.Float64bits(got[v][i]), math.Float64bits(want[v][i]))
			}
		}
	}
}

// TestInferEdgeTableBitIdenticalToForward drives Infer's edge-table
// path over every window of a graph, against Forward over the same
// window, which keeps no memo. The table's memo must survive what can
// happen to it between evaluations: a second Scratch taking it over,
// its own Scratch being told the weights changed, the window moving
// back as well as forward (Undo), and cost vectors changing under its
// slots.
func TestInferEdgeTableBitIdenticalToForward(t *testing.T) {
	g := New(rand.New(rand.NewSource(81)), 6, 2)
	// the window is the vertices [off, 15) of one table, the way a game
	// presents its uncolored suffix
	whole := zeroInfView(82, 15, 6)
	tbl, _ := whole.EdgeTable()
	vecs := make([]cost.Vector, whole.N())
	for i := range vecs {
		vecs[i] = whole.Vec(i)
	}
	off := 0
	a, b := &Scratch{}, &Scratch{}
	check := func(sc *Scratch, what string) {
		t.Helper()
		w := NewView(tbl, off, 6, vecs[off:])
		want, got := g.Forward(w), g.Infer(w, sc)
		for v := range want {
			for i := range want[v] {
				if math.Float64bits(want[v][i]) != math.Float64bits(got[v][i]) {
					t.Fatalf("%s, window %d, vertex %d col %d: got %x want %x",
						what, off, v, i, math.Float64bits(got[v][i]), math.Float64bits(want[v][i]))
				}
			}
		}
	}
	for off = 0; off < 15; off++ {
		check(a, "first scratch")
		check(b, "second scratch")
		check(a, "first scratch again")
		a.InvalidateWeights()
		check(a, "after invalidating weights")
	}
	// one scratch keeps the table: its slots now answer, and each was
	// filled for another window than the one that asks
	rng := rand.New(rand.NewSource(83))
	for _, off = range []int{13, 12, 9, 10, 11, 4, 3, 3, 8, 2, 1, 0, 7, 0} {
		check(a, "window moved")
		vec := vecs[off+rng.Intn(15-off)]
		i := rng.Intn(len(vec))
		old := vec[i]
		vec[i] = cost.Inf
		check(a, "cost vector changed")
		vec[i] = old
		check(a, "cost vector restored")
	}
	off = 0
	check(a, "whole graph")
	if tbl.owner != a || tbl.gen != a.gen {
		t.Error("the table's memo does not follow the scratch that last used it")
	}
}
