// Package tensor provides the small dense linear-algebra kernel used by
// the neural-network stack: float64 vectors and row-major matrices with
// the handful of operations forward and backward passes need.
package tensor

import "fmt"

// Vec is a dense float64 vector.
type Vec []float64

// NewVec returns a zero vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Clone returns a copy of v.
func (v Vec) Clone() Vec {
	w := make(Vec, len(v))
	copy(w, v)
	return w
}

// AddInPlace adds w into v.
func (v Vec) AddInPlace(w Vec) {
	checkLen(len(v), len(w))
	for i := range v {
		v[i] += w[i]
	}
}

// AddScaled adds s*w into v.
func (v Vec) AddScaled(s float64, w Vec) {
	checkLen(len(v), len(w))
	for i := range v {
		v[i] += s * w[i]
	}
}

// Scale multiplies v by s in place.
func (v Vec) Scale(s float64) {
	for i := range v {
		v[i] *= s
	}
}

// Dot returns the inner product of v and w.
func (v Vec) Dot(w Vec) float64 {
	checkLen(len(v), len(w))
	s := 0.0
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Zero sets every entry of v to zero.
func (v Vec) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// Mat is a dense row-major R×C float64 matrix.
type Mat struct {
	R, C int
	W    Vec
}

// NewMat returns a zero R×C matrix.
func NewMat(r, c int) *Mat {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %d×%d", r, c))
	}
	return &Mat{R: r, C: c, W: NewVec(r * c)}
}

// At returns the (i, j) entry.
func (m *Mat) At(i, j int) float64 { return m.W[i*m.C+j] }

// Set assigns the (i, j) entry.
func (m *Mat) Set(i, j int, v float64) { m.W[i*m.C+j] = v }

// MulVec returns m·x (length R). It panics if len(x) != C.
func (m *Mat) MulVec(x Vec) Vec {
	checkLen(m.C, len(x))
	out := NewVec(m.R)
	for i := 0; i < m.R; i++ {
		row := m.W[i*m.C : (i+1)*m.C]
		s := 0.0
		for j, xj := range x {
			s += row[j] * xj
		}
		out[i] = s
	}
	return out
}

// AddMulVec adds m·x into dst (length R) without allocating. It panics
// on dimension mismatch.
func (m *Mat) AddMulVec(dst, x Vec) {
	checkLen(m.C, len(x))
	checkLen(m.R, len(dst))
	for i := 0; i < m.R; i++ {
		row := m.W[i*m.C : (i+1)*m.C]
		s := 0.0
		for j, xj := range x {
			s += row[j] * xj
		}
		dst[i] += s
	}
}

// MulVecInto computes m·x into dst (length R) without allocating,
// overwriting dst. Each dst[i] is the same left-to-right fold over row i
// that MulVec computes, so the two are bit-identical. It panics on
// dimension mismatch.
func (m *Mat) MulVecInto(dst, x Vec) {
	checkLen(m.C, len(x))
	checkLen(m.R, len(dst))
	for i := 0; i < m.R; i++ {
		row := m.W[i*m.C : (i+1)*m.C]
		row = row[:len(x)] // proves row[j] in bounds: no check in the fold
		s := 0.0
		for j, xj := range x {
			s += row[j] * xj
		}
		dst[i] = s
	}
}

// MulTVecInto computes mᵀ·x into dst (length C) without allocating,
// overwriting dst. Bit-identical to MulTVec. It panics on dimension
// mismatch.
func (m *Mat) MulTVecInto(dst, x Vec) {
	checkLen(m.R, len(x))
	checkLen(m.C, len(dst))
	dst.Zero()
	for i := 0; i < m.R; i++ {
		row := m.W[i*m.C : (i+1)*m.C]
		xi := x[i]
		if xi == 0 {
			continue
		}
		for j := range row {
			dst[j] += row[j] * xi
		}
	}
}

// MulTVec returns mᵀ·x (length C). It panics if len(x) != R.
func (m *Mat) MulTVec(x Vec) Vec {
	checkLen(m.R, len(x))
	out := NewVec(m.C)
	for i := 0; i < m.R; i++ {
		row := m.W[i*m.C : (i+1)*m.C]
		xi := x[i]
		if xi == 0 {
			continue
		}
		for j := range row {
			out[j] += row[j] * xi
		}
	}
	return out
}

// AddOuter adds s · a·bᵀ into m (a has length R, b has length C). It is
// the rank-1 update used to accumulate weight gradients.
func (m *Mat) AddOuter(s float64, a, b Vec) {
	checkLen(m.R, len(a))
	checkLen(m.C, len(b))
	for i := 0; i < m.R; i++ {
		ai := s * a[i]
		if ai == 0 {
			continue
		}
		row := m.W[i*m.C : (i+1)*m.C]
		for j := range row {
			row[j] += ai * b[j]
		}
	}
}

func checkLen(want, got int) {
	if want != got {
		panic(fmt.Sprintf("tensor: dimension mismatch: want %d, got %d", want, got))
	}
}
