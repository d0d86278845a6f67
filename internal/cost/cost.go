// Package cost implements arithmetic over the extended reals R ∪ {+∞}
// used by PBQP cost vectors and matrices.
//
// PBQP costs are either finite non-negative reals or +∞ ("forbidden").
// Addition saturates at infinity, and comparisons treat +∞ as larger than
// every finite value. The package also provides dense Vector and Matrix
// types with the small set of operations PBQP solvers need: row/column
// extraction, pointwise addition, minima, and selection.
package cost

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"sync/atomic"
)

// Cost is a single PBQP cost entry: a finite float64 or +∞.
type Cost float64

// Inf is the infinite (forbidden) cost.
const Inf = Cost(math.MaxFloat64)

// infThreshold is the value above which a Cost is considered infinite.
// Saturating addition can produce values above Inf/2 without overflowing,
// and any such value is semantically "forbidden".
const infThreshold = Cost(math.MaxFloat64 / 4)

// IsInf reports whether c represents the infinite cost.
func (c Cost) IsInf() bool { return c >= infThreshold }

// IsZero reports whether c is the exact finite zero cost (zero is
// below infThreshold, so no infinite cost compares equal to it). Zero
// is the additive identity of the zero/infinity ATE regime — it is
// assigned, never accumulated through rounding — so the exact
// comparison is sound. Use it instead of a raw c == 0 outside this
// package.
func (c Cost) IsZero() bool { return c == 0 }

// Add returns c + d, saturating at Inf if either operand or the sum is
// infinite, so that every infinite sum has Inf's bits.
func (c Cost) Add(d Cost) Cost {
	s := c + d
	if c.IsInf() || d.IsInf() || s.IsInf() {
		return Inf
	}
	return s
}

// Less reports whether c is strictly smaller than d. All infinite values
// compare equal to each other and greater than any finite value.
func (c Cost) Less(d Cost) bool {
	if c.IsInf() {
		return false
	}
	if d.IsInf() {
		return true
	}
	return c < d
}

// Finite returns the float64 value of a finite cost; it panics on Inf.
func (c Cost) Finite() float64 {
	if c.IsInf() {
		panic("cost: Finite called on infinite cost")
	}
	return float64(c)
}

// String renders the cost, using "inf" for the infinite value.
func (c Cost) String() string {
	if c.IsInf() {
		return "inf"
	}
	return strconv.FormatFloat(float64(c), 'g', -1, 64)
}

// MarshalJSON renders a finite cost as a JSON number and the infinite
// cost as the string "inf" — JSON has no infinity literal, and emitting
// the raw MaxFloat64 sentinel would invite consumers to do arithmetic
// on it.
func (c Cost) MarshalJSON() ([]byte, error) {
	if c.IsInf() {
		return []byte(`"inf"`), nil
	}
	return json.Marshal(float64(c))
}

// UnmarshalJSON accepts what MarshalJSON emits plus the textual
// spellings Parse accepts ("inf", "infinity", ...). Finite numbers in
// the reserved infinite range are rejected, mirroring the text parser:
// they are almost certainly corrupted data, and the explicit spelling
// exists.
func (c *Cost) UnmarshalJSON(data []byte) error {
	var f float64
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		if f, err = strconv.ParseFloat(strings.TrimSpace(s), 64); err != nil {
			return fmt.Errorf("cost: parse %q: %w", s, err)
		}
	} else if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("cost: %q is not a valid PBQP cost", data)
	}
	v, err := fromFloat(f)
	if err != nil {
		return fmt.Errorf("cost: %s: %w", data, err)
	}
	*c = v
	return nil
}

// fromFloat validates a decoded number the way the graph reader
// validates a cost token: NaN, -Inf and both signs of the reserved
// range are rejected, and +Inf becomes Inf. Its errors leave naming the
// input to the caller.
func fromFloat(f float64) (Cost, error) {
	if math.IsNaN(f) || math.IsInf(f, -1) || f <= -float64(infThreshold) {
		return 0, errors.New("not a valid PBQP cost")
	}
	if math.IsInf(f, 1) {
		return Inf, nil
	}
	if Cost(f).IsInf() {
		return 0, errors.New(`a finite value in the reserved infinite range; use "inf"`)
	}
	return Cost(f), nil
}

// Parse parses a cost from its textual form. "inf" (case-insensitive)
// denotes the infinite cost; strconv.ParseFloat reads that spelling
// (and "+inf", "infinity") as +Inf itself. What the graph reader and
// UnmarshalJSON reject, Parse rejects too.
func Parse(s string) (Cost, error) {
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err == nil {
		var c Cost
		if c, err = fromFloat(f); err == nil {
			return c, nil
		}
	}
	return 0, fmt.Errorf("cost: parse %q: %w", s, err)
}

// Vector is a dense PBQP cost vector (one entry per selectable color).
type Vector []Cost

// NewVector returns a zero vector of length m.
func NewVector(m int) Vector { return make(Vector, m) }

// NewInfVector returns a vector of length m with every entry infinite.
func NewInfVector(m int) Vector {
	v := make(Vector, m)
	for i := range v {
		v[i] = Inf
	}
	return v
}

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	w := make(Vector, len(v))
	copy(w, v)
	return w
}

// AddInPlace adds w to v elementwise, saturating at infinity.
// It panics if the lengths differ.
func (v Vector) AddInPlace(w Vector) {
	if len(v) != len(w) {
		panic("cost: vector length mismatch")
	}
	for i := range v {
		v[i] = v[i].Add(w[i])
	}
}

// Min returns the smallest finite entry and its index, resolving ties to
// the lowest index. If the vector is empty or every entry is infinite it
// returns (Inf, -1).
func (v Vector) Min() (Cost, int) {
	best, idx := Inf, -1
	for i, c := range v {
		if c.IsInf() {
			continue
		}
		if idx == -1 || c.Less(best) {
			best, idx = c, i
		}
	}
	return best, idx
}

// Liberty returns the number of finite (selectable) entries.
func (v Vector) Liberty() int {
	n := 0
	for _, c := range v {
		if !c.IsInf() {
			n++
		}
	}
	return n
}

// AllInf reports whether every entry of v is infinite (a dead end).
func (v Vector) AllInf() bool { return v.Liberty() == 0 }

// Equal reports whether v and w are identical entrywise, with all infinite
// representations comparing equal.
func (v Vector) Equal(w Vector) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i].IsInf() != w[i].IsInf() {
			return false
		}
		if !v[i].IsInf() && v[i] != w[i] {
			return false
		}
	}
	return true
}

// WordHash hashes words by their math.Float64bits, so -0 and +0 hash
// apart: a map key under which equal cost data meets, a hit that
// SameBits then confirms. Each word is rotated before the multiply,
// which alone would carry a difference in the top bits out of the word.
func WordHash[W ~float64](words []W) uint64 {
	var sum uint64
	for _, w := range words {
		sum = bits.RotateLeft64(sum^math.Float64bits(float64(w)), 32) * 0x9e3779b97f4a7c15
	}
	return sum
}

// SameBits reports whether a and b, of one length, hold the same words.
func SameBits(a, b []Cost) bool {
	for i := range a {
		if math.Float64bits(float64(a[i])) != math.Float64bits(float64(b[i])) {
			return false
		}
	}
	return true
}

// String renders the vector as "[a b c]".
func (v Vector) String() string {
	parts := make([]string, len(v))
	for i, c := range v {
		parts[i] = c.String()
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// Matrix is a dense rows×cols PBQP cost matrix stored row-major.
//
// A matrix remembers one fact about its entries once it is asked:
// whether it is diagonal (see Diagonal). That suits a matrix whose
// entries no longer change, which every matrix installed in a
// pbqp.Graph is (its ownership rule), so write a matrix in full before
// anything asks. Copy a Matrix through its pointer, never by value.
type Matrix struct {
	Rows, Cols int
	Data       []Cost
	// diag is Diagonal's answer: nil until the first call, then
	// &notDiagonal or the compact diagonal. It is published atomically,
	// because graphs share their matrices across goroutines.
	diag atomic.Pointer[Vector]
}

// notDiagonal is the answer diag caches for a matrix that is not
// diagonal.
var notDiagonal Vector

// NewMatrix returns a zero rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]Cost, rows*cols)}
}

// NewMatrixFrom builds a matrix from a row-major slice of rows.
// It panics if the rows are ragged.
func NewMatrixFrom(rows [][]Cost) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("cost: ragged matrix rows")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// At returns the (i, j) entry.
func (m *Matrix) At(i, j int) Cost { return m.Data[i*m.Cols+j] }

// Set assigns the (i, j) entry.
func (m *Matrix) Set(i, j int, c Cost) { m.Data[i*m.Cols+j] = c }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// AddInPlace adds o to m elementwise, saturating at infinity.
// It panics on shape mismatch.
func (m *Matrix) AddInPlace(o *Matrix) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic("cost: matrix shape mismatch")
	}
	for i := range m.Data {
		m.Data[i] = m.Data[i].Add(o.Data[i])
	}
}

// IsZero reports whether every entry of m is (finitely) zero. A PBQP edge
// with an all-zero matrix is semantically absent.
func (m *Matrix) IsZero() bool {
	for _, c := range m.Data {
		if c != 0 {
			return false
		}
	}
	return true
}

// Diagonal returns m's diagonal as a compact vector when m is square
// and every entry off its diagonal has the bits of +0 — a −0 does not
// count, since it would change the sign of a zero it is added to — and
// nil otherwise. Register allocation's interference and hint matrices
// are diagonal, and RN (internal/reduce) folds a diagonal edge in O(m)
// instead of O(m²), so an RN elimination costs O(m·deg) when its
// edges are diagonal, not O(m²·deg). The first call scans the entries
// and caches the answer in m; every later call, from any goroutine,
// reads the cache, so m must not be written after the first call. The
// returned vector is shared: never write to it.
func (m *Matrix) Diagonal() Vector {
	d := m.diag.Load()
	if d == nil {
		d = m.classify()
	}
	return *d
}

// classify answers Diagonal for the first time and caches the answer.
func (m *Matrix) classify() *Vector {
	d := &notDiagonal
	if m.isDiagonal() {
		diag := make(Vector, m.Rows)
		for i := range diag {
			diag[i] = m.Data[i*(m.Cols+1)]
		}
		d = &diag
	}
	// Two first calls may race to here; both computed the same answer.
	m.diag.Store(d)
	return d
}

// isDiagonal reports whether m is square with every off-diagonal entry
// bitwise +0.
func (m *Matrix) isDiagonal() bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j, c := range m.Row(i) {
			if j != i && math.Float64bits(float64(c)) != 0 {
				return false
			}
		}
	}
	return true
}

// Equal reports entrywise equality (all infinities compare equal).
func (m *Matrix) Equal(o *Matrix) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	return Vector(m.Data).Equal(Vector(o.Data))
}

// String renders the matrix one row per line.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(Vector(m.Data[i*m.Cols : (i+1)*m.Cols]).String())
	}
	return b.String()
}
