package game

import (
	"math"
	"math/rand"
	"testing"

	"pbqprl/internal/cost"
	"pbqprl/internal/pbqp"
)

// TestRemainderContract walks random Play/Undo paths over integer-cost
// graphs and checks Remainder at every step against the permuted graph
// built independently: the uncolored turns in order with the game's
// propagated vectors, the edges among them with their matrices shared,
// a total cost that completes Acc exactly, and vectors of its own.
func TestRemainderContract(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 30; trial++ {
		n, m := 1+rng.Intn(9), 1+rng.Intn(4)
		g := intGraph(rng, n, m)
		order := MakeOrder(g, OrderRandom, rng)
		perm := g.Permute(order)
		st := New(g, order)
		for step := 0; step < 40; step++ {
			checkRemainder(t, rng, g, perm, order, st)
			var legal []int
			for a := 0; a < st.M() && !st.Done(); a++ {
				if st.Legal(a) {
					legal = append(legal, a)
				}
			}
			if st.Turn() > 0 && (len(legal) == 0 || rng.Intn(3) == 0) {
				st.Undo()
			} else if len(legal) > 0 {
				st.Play(legal[rng.Intn(len(legal))])
			}
		}
	}
}

func checkRemainder(t *testing.T, rng *rand.Rand, g, perm *pbqp.Graph, order []int, st *State) {
	t.Helper()
	turn := st.Turn()
	rem := st.Remainder()
	if rem.NumVertices() != st.N()-turn || rem.M() != st.M() {
		t.Fatalf("turn %d: remainder has %d vertices and %d colors, want %d and %d",
			turn, rem.NumVertices(), rem.M(), st.N()-turn, st.M())
	}
	for i := 0; i < rem.NumVertices(); i++ {
		if !cost.SameBits(rem.VertexCost(i), st.vecs[turn+i]) {
			t.Fatalf("turn %d: vertex %d is %v, the game has %v", turn, i, rem.VertexCost(i), st.vecs[turn+i])
		}
	}
	var want []pbqp.Edge
	for _, e := range perm.Edges() {
		if e.U >= turn {
			want = append(want, pbqp.Edge{U: e.U - turn, V: e.V - turn, M: e.M})
		}
	}
	got := rem.Edges()
	if len(got) != len(want) {
		t.Fatalf("turn %d: %d remainder edges, want %d", turn, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("turn %d: edge %d is (%d, %d, %p), want (%d, %d, %p)",
				turn, i, got[i].U, got[i].V, got[i].M, want[i].U, want[i].V, want[i].M)
		}
	}

	played := st.Played()
	for k := 0; k < 5; k++ {
		sel := make(pbqp.Selection, rem.NumVertices())
		whole := make(pbqp.Selection, g.NumVertices())
		for i, a := range played {
			whole[order[i]] = a
		}
		for i := range sel {
			sel[i] = rng.Intn(st.M())
			whole[order[turn+i]] = sel[i]
		}
		split, total := st.Acc().Add(rem.TotalCost(sel)), g.TotalCost(whole)
		if math.Float64bits(float64(split)) != math.Float64bits(float64(total)) {
			t.Fatalf("turn %d: Acc %v + remainder %v = %v, the whole coloring costs %v",
				turn, st.Acc(), rem.TotalCost(sel), split, total)
		}
	}

	before := make([]cost.Vector, st.N())
	for u := range before {
		before[u] = st.vecs[u].Clone()
	}
	for i := 0; i < rem.NumVertices(); i++ {
		vec := rem.VertexCost(i)
		for j := range vec {
			vec[j] = 1000
		}
	}
	for u := range before {
		if !cost.SameBits(st.vecs[u], before[u]) {
			t.Fatalf("turn %d: writing the remainder changed game vertex %d", turn, u)
		}
	}
}
