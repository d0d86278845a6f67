package reduce

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pbqprl/internal/cost"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/randgraph"
)

// foldValues are the costs the fold tests draw from: both zeros,
// infinity, finite pairs whose sum reaches the infinite range without
// being Inf (MaxFloat64/8 twice is exactly the threshold, /5 twice is
// past it), negatives, a subnormal-sized 1e-300 and small values that
// tie.
var foldValues = []cost.Cost{
	0, cost.Cost(math.Copysign(0, -1)), cost.Inf,
	math.MaxFloat64 / 8, math.MaxFloat64 / 5, -math.MaxFloat64 / 5,
	1e-300, -1e-300, 1, 1, 2, 0.5, -1, 3, 7,
}

// diagonalMatrix builds the m×m matrix with diagonal d and +0 elsewhere.
func diagonalMatrix(d cost.Vector) *cost.Matrix {
	mat := cost.NewMatrix(len(d), len(d))
	for i, c := range d {
		mat.Set(i, i, c)
	}
	return mat
}

// checkFoldsAgree folds one diagonal edge both ways into copies of acc
// and fails unless every color's sum has the same bits.
func checkFoldsAgree(t *testing.T, acc, d, nvec cost.Vector) {
	t.Helper()
	mat := diagonalMatrix(d)
	if got := mat.Diagonal(); got == nil {
		t.Fatalf("diagonal matrix %v not classified diagonal", d)
	}
	fast, slow := acc.Clone(), acc.Clone()
	foldDiagonal(fast, mat.Diagonal(), nvec)
	foldDense(slow, mat, nvec)
	if !cost.SameBits(fast, slow) {
		t.Fatalf("acc %v, diagonal %v, neighbor %v: diagonal fold %s, generic %s",
			acc, d, nvec, bitString(fast), bitString(slow))
	}
}

// bitString renders v with each entry's sign bit visible.
func bitString(v cost.Vector) string {
	s := "["
	for i, c := range v {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%v(%#x)", c, math.Float64bits(float64(c)))
	}
	return s + "]"
}

func fill(m int, c cost.Cost) cost.Vector {
	v := make(cost.Vector, m)
	for i := range v {
		v[i] = c
	}
	return v
}

// TestRNDiagonalFoldMatchesGeneric holds foldDiagonal to foldDense bit
// for bit for m from 1 to 16: on the hand-picked corners (every entry
// infinite, the minimum at the color itself, a +0/−0 tie at different
// indices, saturating sums) and on random vectors over foldValues.
func TestRNDiagonalFoldMatchesGeneric(t *testing.T) {
	negZero := cost.Cost(math.Copysign(0, -1))
	rng := rand.New(rand.NewSource(53))
	for m := 1; m <= 16; m++ {
		// Every entry infinite: the local minimum is Inf for every color.
		checkFoldsAgree(t, fill(m, 0), fill(m, cost.Inf), fill(m, cost.Inf))
		checkFoldsAgree(t, fill(m, 1), fill(m, 0), fill(m, cost.Inf))
		// Saturation: d[i] ⊕ nvec[i] reaches the infinite range from two
		// finite halves and must never be taken.
		checkFoldsAgree(t, fill(m, 0), fill(m, math.MaxFloat64/8), fill(m, math.MaxFloat64/8))
		checkFoldsAgree(t, fill(m, negZero), fill(m, math.MaxFloat64/5), fill(m, math.MaxFloat64/5))
		for i := 0; i < m; i++ {
			// The minimum at color i itself.
			d, nvec := fill(m, 0), fill(m, 5)
			d[i], nvec[i] = -3, 1
			checkFoldsAgree(t, fill(m, 0), d, nvec)
			// A −0 own combination tying the +0 of the others, on either
			// side of the others' first minimum, into a −0 sum.
			d, nvec = fill(m, negZero), fill(m, 4)
			nvec[i] = negZero
			if j := (i + 1) % m; j != i {
				nvec[j] = 0
			}
			if j := (i + m - 1) % m; j != i {
				nvec[j] = negZero
			}
			checkFoldsAgree(t, fill(m, negZero), d, nvec)
			// Everything infinite but color i's own combination.
			d, nvec = fill(m, 0), fill(m, cost.Inf)
			nvec[i] = 2
			checkFoldsAgree(t, fill(m, 0), d, nvec)
		}
		for trial := 0; trial < 2000; trial++ {
			pick := func() cost.Vector {
				v := make(cost.Vector, m)
				for i := range v {
					v[i] = foldValues[rng.Intn(len(foldValues))]
				}
				return v
			}
			checkFoldsAgree(t, pick(), pick(), pick())
		}
	}
}

// FuzzRNDiagonalFold is TestRNDiagonalFoldMatchesGeneric's property
// over fuzzed vectors: the first byte sets m in [1, 16], and each later
// byte picks an entry of acc, then d, then the neighbor's vector —
// from foldValues, or a small multiple of 1/4 that ties often.
func FuzzRNDiagonalFold(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 1, 0, 1, 2, 0, 1})
	f.Add([]byte{0, 2, 2})
	f.Add([]byte{15, 1, 1, 1, 1, 0, 0, 0, 0, 3, 3, 4, 4, 6, 6, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m := 1 + int(data[0])%16
		data = data[1:]
		vec := func() cost.Vector {
			v := make(cost.Vector, m)
			for i := range v {
				if len(data) == 0 {
					break
				}
				b := int(data[0])
				data = data[1:]
				if b < len(foldValues) {
					v[i] = foldValues[b]
				} else {
					v[i] = cost.Cost(b-128) / 4
				}
			}
			return v
		}
		acc := vec()
		d := vec()
		checkFoldsAgree(t, acc, d, vec())
	})
}

// TestNearDiagonalTakesGenericPath: one −0 or one 1e-300 off the
// diagonal makes a matrix dense to Diagonal, so RN scans it in full.
func TestNearDiagonalTakesGenericPath(t *testing.T) {
	for _, off := range []cost.Cost{cost.Cost(math.Copysign(0, -1)), 1e-300} {
		for m := 2; m <= 16; m++ {
			mat := diagonalMatrix(fill(m, 1))
			mat.Set(m-1, 0, off)
			if d := mat.Diagonal(); d != nil {
				t.Fatalf("m=%d, off-diagonal %v: classified diagonal %v", m, off, d)
			}
		}
	}
}

// TestRestartSizesStack: a full reduction of a 2 000-vertex reducible
// graph never grows the record stack or the neighbor-id array Restart
// sized, with or without RN.
func TestRestartSizesStack(t *testing.T) {
	const n = 2000
	g := randgraph.ErdosRenyi(rand.New(rand.NewSource(7)), randgraph.Config{
		N: n, M: 4, PEdge: 2.2 / n, PInf: 0.01})
	for _, rn := range []bool{false, true} {
		r := new(Reduction)
		r.Restart(g, rn)
		stack, ids := cap(r.stack), cap(r.ids)
		for r.Step(false) {
		}
		if rn && r.Eliminated != n {
			t.Fatalf("rn: eliminated %d of %d", r.Eliminated, n)
		}
		if cap(r.stack) != stack {
			t.Fatalf("rn=%v: %d eliminations grew the stack from capacity %d to %d",
				rn, r.Eliminated, stack, cap(r.stack))
		}
		if cap(r.ids) != ids {
			t.Fatalf("rn=%v: %d eliminations grew the neighbor ids from capacity %d to %d",
				rn, r.Eliminated, ids, cap(r.ids))
		}
	}
}

// referenceRN is RN as a per-color scan of every matrix entry followed
// by the paper's transition T (row best of every incident matrix added
// into the neighbor's vector, then u detached): the formulation
// reduceRN must reproduce bit for bit. It returns the chosen color.
func referenceRN(g *pbqp.Graph, u int) int {
	ns := g.Neighbors(u)
	vec := g.VertexCost(u)
	best, bestCost := -1, cost.Inf
	for i := 0; i < g.M(); i++ {
		c := vec[i]
		for _, v := range ns {
			m, nvec := g.EdgeCost(u, v), g.VertexCost(v)
			local := cost.Inf
			for j := 0; j < g.M(); j++ {
				if combined := m.At(i, j).Add(nvec[j]); combined.Less(local) {
					local = combined
				}
			}
			c = c.Add(local)
		}
		if best == -1 || c.Less(bestCost) {
			best, bestCost = i, c
		}
	}
	for _, v := range ns {
		g.AddToVertexCost(v, g.EdgeCost(u, v).Row(best))
	}
	g.RemoveVertex(u)
	return best
}

// TestReduceRNMatchesReference colors every vertex of random graphs by
// RN, in id order, both ways — edges diagonal, dense, or diagonal but
// for one −0 — over foldValues, and compares each chosen color and
// every vector's bits after every step.
func TestReduceRNMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for trial := 0; trial < 300; trial++ {
		n, m := 2+rng.Intn(9), 1+rng.Intn(13)
		g := pbqp.New(n, m)
		pick := func() cost.Cost { return foldValues[rng.Intn(len(foldValues))] }
		for u := 0; u < n; u++ {
			v := make(cost.Vector, m)
			for i := range v {
				v[i] = pick()
			}
			g.SetVertexCost(u, v)
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() > 0.6 {
					continue
				}
				d := make(cost.Vector, m)
				for i := range d {
					d[i] = pick()
				}
				mat := diagonalMatrix(d)
				switch rng.Intn(3) {
				case 1:
					for k := range mat.Data {
						mat.Data[k] = pick()
					}
				case 2:
					if m > 1 {
						mat.Set(0, m-1, cost.Cost(math.Copysign(0, -1)))
					}
				}
				g.SetEdgeCost(u, v, mat)
			}
		}
		want := g.Clone()
		red := &Reduction{Graph: g.Clone()}
		for u := 0; u < n; u++ {
			got := red.reduceRN(u, red.Graph.Neighbors(u))
			if c := referenceRN(want, u); got.chosen != c {
				t.Fatalf("trial %d, vertex %d: reduceRN chose %d, the scan %d\n%s", trial, u, got.chosen, c, g)
			}
			for v := 0; v < n; v++ {
				if a, b := red.Graph.VertexCost(v), want.VertexCost(v); !cost.SameBits(a, b) {
					t.Fatalf("trial %d, after vertex %d: vector %d is %s, the scan's %s", trial, u, v, bitString(a), bitString(b))
				}
			}
		}
	}
}
