package cost

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// TestJSONRoundTrip pins the JSON encoding: finite costs are numbers,
// infinity is the string "inf", and decoding inverts encoding exactly.
func TestJSONRoundTrip(t *testing.T) {
	for _, c := range []Cost{0, 1, 0.30000000000000004, 1e307, -0.25, Inf} {
		data, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("marshal %v: %v", c, err)
		}
		var back Cost
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if back != c && !(back.IsInf() && c.IsInf()) {
			t.Fatalf("round trip %v → %s → %v", c, data, back)
		}
	}
	if data, _ := json.Marshal(Inf); string(data) != `"inf"` {
		t.Fatalf("Inf marshals as %s, want \"inf\"", data)
	}
}

// TestJSONRejectsHostileValues mirrors the text parser's hardening. A
// number in the reserved range is rejected whether it is spelled as a
// JSON number or as a string.
func TestJSONRejectsHostileValues(t *testing.T) {
	for _, in := range []string{`"NaN"`, `"-inf"`, `1e308`, `-1e308`, `"1e308"`, `"-1e308"`, `"zebra"`, `{}`, `[1]`} {
		var c Cost
		if err := json.Unmarshal([]byte(in), &c); err == nil {
			t.Fatalf("UnmarshalJSON accepted %s as %v", in, c)
		}
	}
	// Explicit spellings keep working through the JSON path too.
	for _, in := range []string{`"inf"`, `"INF"`, `"infinity"`, `"+inf"`} {
		var c Cost
		if err := json.Unmarshal([]byte(in), &c); err != nil || c != Inf {
			t.Fatalf("UnmarshalJSON(%s) = %v, %v; want Inf", in, c, err)
		}
	}
}

func TestInfPredicates(t *testing.T) {
	if !Inf.IsInf() {
		t.Fatal("Inf.IsInf() = false")
	}
	if Cost(0).IsInf() {
		t.Fatal("0 reported infinite")
	}
	if Cost(1e100).IsInf() {
		t.Fatal("1e100 should be finite")
	}
	if !Inf.Add(Inf).IsInf() {
		t.Fatal("saturated sum not infinite")
	}
}

func TestAddSaturates(t *testing.T) {
	cases := []struct {
		a, b Cost
		inf  bool
		want Cost
	}{
		{0, 0, false, 0},
		{1, 2, false, 3},
		{Inf, 1, true, 0},
		{1, Inf, true, 0},
		{Inf, Inf, true, 0},
	}
	for _, c := range cases {
		got := c.a.Add(c.b)
		if got.IsInf() != c.inf {
			t.Errorf("%v.Add(%v): inf = %v, want %v", c.a, c.b, got.IsInf(), c.inf)
		}
		if !c.inf && got != c.want {
			t.Errorf("%v.Add(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestLess(t *testing.T) {
	if !Cost(1).Less(Cost(2)) {
		t.Error("1 < 2 failed")
	}
	if Cost(2).Less(Cost(1)) {
		t.Error("2 < 1 succeeded")
	}
	if Inf.Less(Cost(1)) {
		t.Error("Inf < 1 succeeded")
	}
	if !Cost(1).Less(Inf) {
		t.Error("1 < Inf failed")
	}
	if Inf.Less(Inf) {
		t.Error("Inf < Inf succeeded")
	}
}

func TestFinitePanicsOnInf(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Finite on Inf did not panic")
		}
	}()
	_ = Inf.Finite()
}

func TestParseAndString(t *testing.T) {
	for _, s := range []string{"inf", "Inf", "INF", " inf "} {
		c, err := Parse(s)
		if err != nil || !c.IsInf() {
			t.Errorf("Parse(%q) = %v, %v; want Inf", s, c, err)
		}
	}
	c, err := Parse("3.5")
	if err != nil || c != 3.5 {
		t.Errorf("Parse(3.5) = %v, %v", c, err)
	}
	if _, err := Parse("NaN"); err == nil {
		t.Error("Parse(NaN) succeeded")
	}
	if _, err := Parse("-Inf"); err == nil {
		t.Error("Parse(-Inf) succeeded")
	}
	if _, err := Parse("bogus"); err == nil {
		t.Error("Parse(bogus) succeeded")
	}
	if got := Inf.String(); got != "inf" {
		t.Errorf("Inf.String() = %q", got)
	}
	if got := Cost(2).String(); got != "2" {
		t.Errorf("Cost(2).String() = %q", got)
	}
}

// TestParseSpellings pins Parse on the spellings its former
// EqualFold("inf") test and strconv.ParseFloat could have disagreed on:
// ParseFloat alone now decides, and must decide the same.
func TestParseSpellings(t *testing.T) {
	for _, s := range []string{"inf", "iNf", "+inf", "+INF", "infinity", "+Infinity", "\u00a0inf\u0085", "\tInf\n"} {
		if c, err := Parse(s); err != nil || c != Inf {
			t.Errorf("Parse(%q) = %v, %v; want Inf", s, c, err)
		}
	}
	for _, s := range []string{"", " ", "-inf", "-Infinity", "infinit", "in f", "ınf", "İNF", "i̇nf", "nan", "+NaN",
		"1e999", "-1e999", "1__0", "0x", "1 2", "1e", "--1", "1e308", "-1e308", "1.7976931348623157e308"} {
		if c, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) = %v, want an error", s, c)
		} else if !strings.HasPrefix(err.Error(), fmt.Sprintf("cost: parse %q: ", s)) {
			t.Errorf("Parse(%q) error %q does not quote its input", s, err)
		}
	}
	for s, want := range map[string]Cost{"0": 0, "007": 7, " 2.5 ": 2.5, "-3": -3, "0x1p4": 16, "0x_1p4": 16, "1_0": 10,
		"1e-999": 0, "1e307": 1e307, "-1e307": -1e307} {
		if c, err := Parse(s); err != nil || c != want {
			t.Errorf("Parse(%q) = %v, %v; want %v", s, c, err, want)
		}
	}
	if c, err := Parse("-0"); err != nil || c != 0 || !math.Signbit(float64(c)) {
		t.Errorf("Parse(-0) = %v, %v; want negative zero", c, err)
	}
}

func TestParseRoundTrip(t *testing.T) {
	f := func(x float64) bool {
		x = math.Abs(x)
		if math.IsNaN(x) || math.IsInf(x, 0) || Cost(x).IsInf() {
			return true
		}
		c, err := Parse(Cost(x).String())
		return err == nil && c == Cost(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVectorMin(t *testing.T) {
	v := Vector{Inf, 3, 1, 1, Inf}
	c, i := v.Min()
	if c != 1 || i != 2 {
		t.Errorf("Min = (%v, %d), want (1, 2)", c, i)
	}
	if _, i := (Vector{Inf, Inf}).Min(); i != -1 {
		t.Errorf("all-inf Min index = %d, want -1", i)
	}
	if _, i := (Vector{}).Min(); i != -1 {
		t.Errorf("empty Min index = %d, want -1", i)
	}
}

func TestVectorLibertyAndAllInf(t *testing.T) {
	v := Vector{Inf, 0, 2, Inf}
	if got := v.Liberty(); got != 2 {
		t.Errorf("Liberty = %d, want 2", got)
	}
	if v.AllInf() {
		t.Error("AllInf true for mixed vector")
	}
	if !NewInfVector(3).AllInf() {
		t.Error("AllInf false for inf vector")
	}
	if NewVector(3).AllInf() {
		t.Error("AllInf true for zero vector")
	}
}

func TestVectorAddInPlace(t *testing.T) {
	v := Vector{1, 2, Inf}
	v.AddInPlace(Vector{10, Inf, 0})
	if v[0] != 11 || !v[1].IsInf() || !v[2].IsInf() {
		t.Errorf("AddInPlace = %v", v)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	v.AddInPlace(Vector{1})
}

func TestVectorCloneIndependence(t *testing.T) {
	v := Vector{1, 2}
	w := v.Clone()
	w[0] = 99
	if v[0] != 1 {
		t.Error("Clone aliases original")
	}
}

func TestVectorEqual(t *testing.T) {
	a := Vector{1, Inf}
	b := Vector{1, Inf + 0} // same semantics
	if !a.Equal(b) {
		t.Error("equal vectors reported unequal")
	}
	if a.Equal(Vector{1}) {
		t.Error("different lengths reported equal")
	}
	if a.Equal(Vector{2, Inf}) {
		t.Error("different values reported equal")
	}
	if a.Equal(Vector{1, 0}) {
		t.Error("inf vs finite reported equal")
	}
}

// TestWordHashAndSameBits: equal words hash alike and compare same;
// the two zeros, which Equal calls equal, are different words.
func TestWordHashAndSameBits(t *testing.T) {
	negZero := Cost(math.Copysign(0, -1))
	a := Vector{1, 0, Inf, 0.1}
	if b := a.Clone(); WordHash(a) != WordHash(b) || !SameBits(a, b) {
		t.Error("a copy hashes or compares differently")
	}
	z := Vector{1, negZero, Inf, 0.1}
	if !a.Equal(z) {
		t.Fatal("Equal tells -0 from +0")
	}
	if WordHash(a) == WordHash(z) || SameBits(a, z) || SameBits(z, a) {
		t.Error("-0 and +0 meet under WordHash or SameBits")
	}
	if WordHash(Vector{1, 2}) == WordHash(Vector{2, 1}) {
		t.Error("WordHash ignores the order of the words")
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Error("At/Set mismatch")
	}
	if got := m.Row(1); got[2] != 7 {
		t.Errorf("Row = %v", got)
	}
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 1) != 7 {
		t.Errorf("Transpose wrong: %v", tr)
	}
}

func TestMatrixFromAndEqual(t *testing.T) {
	m := NewMatrixFrom([][]Cost{{1, 2}, {3, Inf}})
	if m.At(1, 1) != Inf || m.At(0, 1) != 2 {
		t.Errorf("NewMatrixFrom wrong: %v", m)
	}
	if !m.Equal(m.Clone()) {
		t.Error("clone not equal")
	}
	other := m.Clone()
	other.Set(0, 0, 9)
	if m.Equal(other) {
		t.Error("different matrices equal")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ragged rows did not panic")
		}
	}()
	NewMatrixFrom([][]Cost{{1}, {1, 2}})
}

func TestMatrixAddInPlaceAndZero(t *testing.T) {
	m := NewMatrixFrom([][]Cost{{0, 1}, {2, 3}})
	m.AddInPlace(NewMatrixFrom([][]Cost{{0, Inf}, {1, 1}}))
	if m.At(0, 0) != 0 || !m.At(0, 1).IsInf() || m.At(1, 0) != 3 {
		t.Errorf("AddInPlace = %v", m)
	}
	if m.IsZero() {
		t.Error("nonzero matrix reported zero")
	}
	if !NewMatrix(2, 2).IsZero() {
		t.Error("zero matrix not reported zero")
	}
}

// Property: Add is commutative and associative over random costs
// (including infinities), and Inf is absorbing.
// TestMatrixDiagonal: Diagonal answers from the bits of the entries
// off the diagonal, returns the diagonal compactly, and scans a matrix
// once — the cached answer survives a write, which the ownership rule
// forbids, and which is how this test sees that nothing re-scans.
// Goroutines asking at once all get the one answer (run under -race).
func TestMatrixDiagonal(t *testing.T) {
	diag := NewMatrixFrom([][]Cost{{3, 0, 0}, {0, Inf, 0}, {0, 0, Cost(math.Copysign(0, -1))}})
	if d := diag.Diagonal(); !SameBits(d, Vector{3, Inf, Cost(math.Copysign(0, -1))}) || len(d) != 3 {
		t.Fatalf("Diagonal() = %v, want [3 inf -0]", d)
	}
	diag.Set(0, 1, 5)
	if diag.Diagonal() == nil {
		t.Fatal("Diagonal re-scanned a classified matrix")
	}
	if NewMatrix(2, 2).Diagonal() == nil {
		t.Error("the zero matrix is diagonal")
	}
	for _, m := range []*Matrix{
		NewMatrix(2, 3),
		NewMatrixFrom([][]Cost{{1, Cost(math.Copysign(0, -1))}, {0, 1}}),
		NewMatrixFrom([][]Cost{{1, 0}, {1e-300, 1}}),
	} {
		if d := m.Diagonal(); d != nil {
			t.Errorf("%v classified diagonal %v", m, d)
		}
		m.Set(0, 1, 0)
		if m.Diagonal() != nil {
			t.Error("Diagonal re-scanned a classified matrix")
		}
	}
	shared := NewMatrix(13, 13)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if len(shared.Diagonal()) != 13 {
				t.Error("concurrent Diagonal lost the diagonal")
			}
		}()
	}
	wg.Wait()
}

func TestAddAlgebraProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randCost := func() Cost {
		if rng.Intn(4) == 0 {
			return Inf
		}
		return Cost(rng.Float64() * 100)
	}
	for i := 0; i < 1000; i++ {
		a, b, c := randCost(), randCost(), randCost()
		ab, ba := a.Add(b), b.Add(a)
		if ab.IsInf() != ba.IsInf() || (!ab.IsInf() && ab != ba) {
			t.Fatalf("Add not commutative: %v %v", a, b)
		}
		l, r := a.Add(b).Add(c), a.Add(b.Add(c))
		if l.IsInf() != r.IsInf() || (!l.IsInf() && math.Abs(float64(l-r)) > 1e-9) {
			t.Fatalf("Add not associative: %v %v %v", a, b, c)
		}
		if !a.Add(Inf).IsInf() {
			t.Fatalf("Inf not absorbing for %v", a)
		}
	}
}
