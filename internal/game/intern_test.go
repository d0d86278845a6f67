package game

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"pbqprl/internal/ate"
	"pbqprl/internal/cost"
	"pbqprl/internal/gcn"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/randgraph"
	"pbqprl/internal/tensor"
)

// contentKey is a transformed matrix's words, bit for bit.
func contentKey(m *tensor.Mat) string {
	var b []byte
	for _, w := range m.W {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(w))
	}
	return string(b)
}

// distinctKernels checks that st's table holds exactly one kernel per
// distinct bitwise content of its matrices, and that every later edge
// Play walks carries the table's kernel of the edge to the same
// neighbor, and returns how many there are.
func distinctKernels(t *testing.T, what string, st *State) int {
	t.Helper()
	tbl := st.edges
	byContent := map[string]*gcn.Kernel{}
	byEdge := map[[2]int]*gcn.Kernel{}
	for u := 0; u < st.n; u++ {
		for e := tbl.Start[u]; e < tbl.Start[u+1]; e++ {
			w, k := int(tbl.Nbr[e]), tbl.Kern[e]
			key := contentKey(tbl.MatOf(u, w))
			if seen, ok := byContent[key]; ok && seen != k {
				t.Fatalf("%s: edge %d carries a second kernel of one content", what, e)
			}
			byContent[key], byEdge[[2]int{u, w}] = k, k
		}
	}
	for u, later := range st.later {
		for _, le := range later {
			if byEdge[[2]int{u, le.v}] != le.d.k {
				t.Fatalf("%s: later edge (%d, %d) does not carry the table's kernel", what, u, le.v)
			}
		}
	}
	return len(byContent)
}

// TestNewInternsEachDistinctMatrix: game.New holds one kernel per
// distinct content, whether the graph hands it a fresh matrix
// per edge (ate.BuildPBQP) or shares them (pbqp.Read).
func TestNewInternsEachDistinctMatrix(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		prog, _ := ate.Generate(ate.DefaultMachine(), ate.GenConfig{
			Name: "intern", NumVRegs: 30 + 15*int(seed), PairRatio: 0.3, HardRatio: 0.4, MaxLive: 8, Seed: seed,
		})
		built, err := ate.BuildPBQP(prog)
		if err != nil {
			t.Fatal(err)
		}
		var text bytes.Buffer
		if err := pbqp.Write(&text, built); err != nil {
			t.Fatal(err)
		}
		read, err := pbqp.Read(&text)
		if err != nil {
			t.Fatal(err)
		}
		order := MakeOrder(built, OrderIncLiberty, nil)
		a := distinctKernels(t, "BuildPBQP", New(built, order))
		b := distinctKernels(t, "Read", New(read, order))
		if a != b || a > 4 {
			t.Errorf("seed %d: %d distinct matrices from BuildPBQP, %d after a round trip; want the same handful", seed, a, b)
		}
	}
}

// TestNewKeepsSignedZerosApart: two matrices equal but for one -0 are
// two matrices to the game, as their transforms are two; equal ones
// under different pointers, and a symmetric matrix's transpose, are
// one.
func TestNewKeepsSignedZerosApart(t *testing.T) {
	negZero := cost.Cost(math.Copysign(0, -1))
	g := pbqp.New(3, 2)
	g.SetEdgeCost(0, 1, cost.NewMatrixFrom([][]cost.Cost{{0, 5}, {5, 0}}))
	g.SetEdgeCost(0, 2, cost.NewMatrixFrom([][]cost.Cost{{0, 5}, {5, 0}}))
	g.SetEdgeCost(1, 2, cost.NewMatrixFrom([][]cost.Cost{{0, 5}, {5, negZero}}))
	st := New(g, []int{0, 1, 2})
	if n := distinctKernels(t, "signed zeros", st); n != 2 {
		t.Fatalf("%d distinct matrices, want 2", n)
	}
	plus, minus := st.edges.MatOf(0, 1), st.edges.MatOf(1, 2)
	if plus == minus {
		t.Fatal("a matrix with -0 shares the matrix of its +0 twin")
	}
	if st.edges.MatOf(0, 2) != plus || st.edges.MatOf(1, 0) != plus || st.edges.MatOf(2, 1) != minus {
		t.Error("equal matrices were not shared")
	}
	if math.Signbit(plus.At(1, 1)) || !math.Signbit(minus.At(1, 1)) {
		t.Errorf("transformed corners %v and %v: the -0 did not survive", plus.At(1, 1), minus.At(1, 1))
	}
}

// TestPlayUndoMatchesWholeRows walks Play and Undo over finite graphs
// whose matrices hold negative, -0, +0, 5e-324 and ∞ entries, against
// a model that adds each played row whole: every vector, Acc and
// DeadEnd agree bit for bit at every step. The vertex vectors hold no
// -0, the one entry adding a +0 would change (and no sum turns into
// -0), and hold a +0, which a 5e-324 changes though its transform is 0.
func TestPlayUndoMatchesWholeRows(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	negZero := cost.Cost(math.Copysign(0, -1))
	for trial := 0; trial < 20; trial++ {
		n, m := 8+rng.Intn(8), 2+rng.Intn(4)
		g := randgraph.ErdosRenyi(rng, randgraph.Config{N: n, M: m, PEdge: 0.5, PInf: 0.1})
		for _, e := range g.Edges() {
			mat := e.M.Clone()
			for i := range mat.Data {
				switch rng.Intn(7) {
				case 0:
					mat.Data[i] = -cost.Cost(rng.Float64() * 5)
				case 1:
					mat.Data[i] = negZero
				case 2:
					mat.Data[i] = 0
				case 3:
					mat.Data[i] = 5e-324
				}
			}
			g.SetEdgeCost(e.U, e.V, mat)
		}
		for u := 0; u < n; u++ {
			vec := g.VertexCost(u).Clone()
			vec[rng.Intn(m)] = -cost.Cost(0.5 + rng.Float64())
			vec[rng.Intn(m)] = 0
			g.SetVertexCost(u, vec)
		}
		order := MakeOrder(g, OrderRandom, rng)
		h := g.Permute(order)
		st := New(g, order)

		// the model: vectors, Acc and a stack of saved states
		type saved struct {
			vecs []cost.Vector
			acc  cost.Cost
		}
		var vecs []cost.Vector
		for u := 0; u < n; u++ {
			vecs = append(vecs, h.VertexCost(u).Clone())
		}
		var acc cost.Cost
		var stack []saved
		for step := 0; step < 200; step++ {
			turn := len(stack)
			var legal []int
			for a := 0; turn < n && a < m; a++ {
				if !vecs[turn][a].IsInf() {
					legal = append(legal, a)
				}
			}
			if turn > 0 && (len(legal) == 0 || rng.Intn(3) == 0) {
				st.Undo()
				top := stack[len(stack)-1]
				stack, vecs, acc = stack[:len(stack)-1], top.vecs, top.acc
			} else if len(legal) > 0 {
				a := legal[rng.Intn(len(legal))]
				st.Play(a)
				s := saved{acc: acc}
				for _, v := range vecs {
					s.vecs = append(s.vecs, v.Clone())
				}
				stack = append(stack, s)
				for _, w := range h.Neighbors(turn) {
					if w > turn {
						for i, c := range h.EdgeCost(turn, w).Row(a) {
							vecs[w][i] = vecs[w][i].Add(c)
						}
					}
				}
				acc = acc.Add(vecs[turn][a])
			}
			dead := false
			for _, v := range vecs[len(stack):] {
				dead = dead || v.AllInf()
			}
			if math.Float64bits(float64(st.Acc())) != math.Float64bits(float64(acc)) || st.DeadEnd() != (dead && len(stack) < n) {
				t.Fatalf("trial %d step %d: Acc %v DeadEnd %v, model %v %v", trial, step, st.Acc(), st.DeadEnd(), acc, dead)
			}
			for u, v := range vecs {
				for i := range v {
					if math.Float64bits(float64(st.vecs[u][i])) != math.Float64bits(float64(v[i])) {
						t.Fatalf("trial %d step %d: vertex %d entry %d is %v, model %v", trial, step, u, i, st.vecs[u][i], v[i])
					}
				}
			}
		}
	}
}
