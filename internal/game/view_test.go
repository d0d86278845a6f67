package game

import (
	"math/rand"
	"testing"

	"pbqprl/internal/cost"
	"pbqprl/internal/gcn"
	"pbqprl/internal/randgraph"
	"pbqprl/internal/tensor"
)

// viewNbrs and viewMat read the window of v's edge table: active vertex
// i's neighbors, and the matrix of edge (i, j), rows = i's color.
func viewNbrs(v gcn.View, i int) []int {
	tbl, off := v.EdgeTable()
	return tbl.WindowNbrs(off+i, off)
}

func viewMat(v gcn.View, i, j int) *tensor.Mat {
	tbl, off := v.EdgeTable()
	return tbl.MatOf(off+i, off+j)
}

// TestSnapshotSurvivesRewind: a snapshot shares the game's edges but
// owns its vectors, so it reads the same while the game it was taken
// from plays on, is rewound to the first turn and is played again with
// other colors — what an episode's second player does to the first's.
func TestSnapshotSurvivesRewind(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	g := randgraph.ErdosRenyi(rng, randgraph.Config{N: 12, M: 3, PEdge: 0.5, PInf: 0})
	st := New(g, rng.Perm(12))
	st.Play(0)
	st.Play(1)
	snap, live := st.Snapshot(), st.View()
	var want []cost.Vector
	for i := 0; i < snap.N(); i++ {
		want = append(want, snap.Vec(i).Clone())
		if !snap.Vec(i).Equal(live.Vec(i)) {
			t.Fatalf("snapshot vector %d is not the state's", i)
		}
	}
	if j := viewNbrs(snap, 0)[0]; viewMat(snap, 0, j) != viewMat(live, 0, j) {
		t.Error("the snapshot copied an edge matrix it was meant to share")
	}
	check := func(when string) {
		t.Helper()
		for i, w := range want {
			if !snap.Vec(i).Equal(w) {
				t.Fatalf("%s: snapshot vector %d changed to %v, was %v", when, i, snap.Vec(i), w)
			}
		}
	}
	changed := false
	for !st.Done() {
		st.Play(2)
		for i := st.Turn(); i < st.n; i++ {
			changed = changed || !st.vecs[i].Equal(want[i-2])
		}
		check("playing on")
	}
	if !changed {
		t.Fatal("playing on never changed a vector the snapshot covers")
	}
	for st.Turn() > 0 {
		st.Undo()
	}
	check("rewound")
	for !st.Done() {
		st.Play(st.Turn() % 3)
		check("replayed")
	}
}

// TestViewMatchesGraphAtEveryTurn checks the window view and the
// snapshot against the graph itself at every turn of shuffled games:
// active vertex i is order[t+i], its neighbors are the uncolored
// neighbors in ascending game order, and each edge matrix is the one a
// game in the graph's own order holds for the edge, oriented rows = i.
// The snapshot's window must hold the live table's very matrices, edge
// for edge.
func TestViewMatchesGraphAtEveryTurn(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(40 + seed))
		n, m := 9+rng.Intn(6), 3
		g := randgraph.ErdosRenyi(rng, randgraph.Config{N: n, M: m, PEdge: 0.45, PInf: 0})
		order := rng.Perm(n)
		st, whole := New(g, order), New(g, MakeOrder(g, OrderFixed, nil))
		for ; !st.Done(); st.Play(0) {
			turn := st.Turn()
			live := st.View()
			tbl, off := live.EdgeTable()
			if off != turn {
				t.Fatalf("seed %d turn %d: table window starts at %d", seed, turn, off)
			}
			for name, v := range map[string]gcn.View{"view": live, "snapshot": st.Snapshot()} {
				if v.N() != n-turn || v.M() != m {
					t.Fatalf("seed %d turn %d: %s shape (%d,%d)", seed, turn, name, v.N(), v.M())
				}
				for i := 0; i < v.N(); i++ {
					var want []int
					for j := 0; j < v.N(); j++ {
						if g.EdgeCost(order[turn+i], order[turn+j]) != nil {
							want = append(want, j)
						}
					}
					got := viewNbrs(v, i)
					if len(got) != len(want) {
						t.Fatalf("seed %d turn %d: %s Nbrs(%d) = %v, want %v", seed, turn, name, i, got, want)
					}
					lo, hi := tbl.From(turn+i, turn)
					if int(hi-lo) != len(want) {
						t.Fatalf("seed %d turn %d: table window of %d holds %d edges, want %d", seed, turn, i, hi-lo, len(want))
					}
					for k, j := range want {
						if got[k] != j {
							t.Fatalf("seed %d turn %d: %s Nbrs(%d) = %v, want %v", seed, turn, name, i, got, want)
						}
						wantMat := whole.edges.MatOf(order[turn+i], order[turn+j])
						mat := viewMat(v, i, j)
						for x := range wantMat.W {
							if mat.W[x] != wantMat.W[x] {
								t.Fatalf("seed %d turn %d: %s Mat(%d,%d) differs from the graph's edge", seed, turn, name, i, j)
							}
						}
						if e := int(lo) + k; int(tbl.Nbr[e])-turn != j || tbl.MatOf(turn+i, turn+j) != mat {
							t.Fatalf("seed %d turn %d: %s edge %d of vertex %d is not the live table's", seed, turn, name, k, i)
						}
					}
				}
			}
		}
	}
}
