package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVecOps(t *testing.T) {
	v := Vec{1, 2, 3}
	w := v.Clone()
	w[0] = 9
	if v[0] != 1 {
		t.Error("Clone aliases")
	}
	v.AddInPlace(Vec{0, 0, 1})
	if v[2] != 4 {
		t.Errorf("AddInPlace = %v", v)
	}
	v.AddScaled(2, Vec{1, 0, 0})
	if v[0] != 3 {
		t.Errorf("AddScaled = %v", v)
	}
	v.Scale(2)
	if v[0] != 6 {
		t.Errorf("Scale = %v", v)
	}
	if got := (Vec{1, 2}).Dot(Vec{3, 4}); got != 11 {
		t.Errorf("Dot = %v", got)
	}
	v.Zero()
	if v[0] != 0 || v[1] != 0 {
		t.Errorf("Zero = %v", v)
	}
}

func TestVecPanicsOnMismatch(t *testing.T) {
	for name, f := range map[string]func(){
		"AddInPlace": func() { Vec{1}.AddInPlace(Vec{1, 2}) },
		"Dot":        func() { Vec{1}.Dot(Vec{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestMatMulVec(t *testing.T) {
	m := NewMat(2, 3)
	copy(m.W, []float64{1, 2, 3, 4, 5, 6})
	y := m.MulVec(Vec{1, 0, -1})
	if y[0] != -2 || y[1] != -2 {
		t.Errorf("MulVec = %v", y)
	}
	yt := m.MulTVec(Vec{1, 1})
	if yt[0] != 5 || yt[1] != 7 || yt[2] != 9 {
		t.Errorf("MulTVec = %v", yt)
	}
}

func TestMulTVecIsTranspose(t *testing.T) {
	// property: mᵀx computed by MulTVec equals explicit transpose-multiply
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		r, c := 1+rng.Intn(6), 1+rng.Intn(6)
		m := NewMat(r, c)
		for i := range m.W {
			m.W[i] = rng.NormFloat64()
		}
		x := NewVec(r)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := m.MulTVec(x)
		for j := 0; j < c; j++ {
			want := 0.0
			for i := 0; i < r; i++ {
				want += m.At(i, j) * x[i]
			}
			if math.Abs(got[j]-want) > 1e-12 {
				t.Fatalf("MulTVec[%d] = %v, want %v", j, got[j], want)
			}
		}
	}
}

func TestAddOuter(t *testing.T) {
	m := NewMat(2, 2)
	m.AddOuter(2, Vec{1, 3}, Vec{5, 7})
	if m.At(0, 0) != 10 || m.At(0, 1) != 14 || m.At(1, 0) != 30 || m.At(1, 1) != 42 {
		t.Errorf("AddOuter = %v", m.W)
	}
	m.AddOuter(1, Vec{0, 1}, Vec{1, 0})
	if m.At(1, 0) != 31 {
		t.Errorf("AddOuter accumulate = %v", m.W)
	}
}

func TestDotCommutative(t *testing.T) {
	f := func(a, b [4]float64) bool {
		v, w := Vec(a[:]), Vec(b[:])
		x, y := v.Dot(w), w.Dot(v)
		return x == y || (math.IsNaN(x) && math.IsNaN(y))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewMatPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewMat(-1, 2)
}

// randMat fills an r×c matrix from rng with values in [-1, 1).
func randMat(rng *rand.Rand, r, c int) *Mat {
	m := NewMat(r, c)
	for i := range m.W {
		m.W[i] = rng.Float64()*2 - 1
	}
	return m
}

func randVec(rng *rand.Rand, n int) Vec {
	v := NewVec(n)
	for i := range v {
		v[i] = rng.Float64()*2 - 1
	}
	return v
}

// TestMulVecIntoBitIdentical pins the engine contract: the Into
// variants produce bit-for-bit the same floats as their allocating
// counterparts, across shapes.
func TestMulVecIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		r, c := 1+rng.Intn(40), 1+rng.Intn(40)
		m := randMat(rng, r, c)
		x := randVec(rng, c)
		want := m.MulVec(x)
		got := NewVec(r)
		// poison dst: Into must overwrite, not accumulate
		for i := range got {
			got[i] = math.NaN()
		}
		m.MulVecInto(got, x)
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("trial %d: MulVecInto[%d] = %x, want %x", trial, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
		xt := randVec(rng, r)
		wantT := m.MulTVec(xt)
		gotT := NewVec(c)
		for i := range gotT {
			gotT[i] = math.NaN()
		}
		m.MulTVecInto(gotT, xt)
		for i := range wantT {
			if math.Float64bits(wantT[i]) != math.Float64bits(gotT[i]) {
				t.Fatalf("trial %d: MulTVecInto[%d] = %x, want %x", trial, i, math.Float64bits(gotT[i]), math.Float64bits(wantT[i]))
			}
		}
	}
}

// TestIntoVariantsAllocFree pins the reason the Into variants exist.
func TestIntoVariantsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := randMat(rng, 13, 13)
	x := randVec(rng, 13)
	dst := NewVec(13)
	if n := testing.AllocsPerRun(100, func() {
		m.MulVecInto(dst, x)
		m.MulTVecInto(dst, x)
	}); n != 0 {
		t.Fatalf("Into kernels allocate %.1f times per run", n)
	}
}
