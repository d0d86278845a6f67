package game

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"pbqprl/internal/cost"
	"pbqprl/internal/gcn"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/randgraph"
)

func fig2Graph() *pbqp.Graph {
	g := pbqp.New(3, 2)
	g.SetVertexCost(0, cost.Vector{5, 2})
	g.SetVertexCost(1, cost.Vector{5, 0})
	g.SetVertexCost(2, cost.Vector{0, 0})
	g.SetEdgeCost(0, 1, cost.NewMatrixFrom([][]cost.Cost{{1, 3}, {7, 8}}))
	g.SetEdgeCost(1, 2, cost.NewMatrixFrom([][]cost.Cost{{0, 4}, {9, 6}}))
	g.SetEdgeCost(0, 2, cost.NewMatrixFrom([][]cost.Cost{{0, 2}, {5, 3}}))
	return g
}

func TestPlayAccumulatesEquationOneCost(t *testing.T) {
	g := fig2Graph()
	st := New(g, []int{0, 1, 2})
	st.Play(1)
	st.Play(1)
	st.Play(0)
	if !st.Done() {
		t.Fatal("not done after n plays")
	}
	if st.Acc() != 24 {
		t.Errorf("acc = %v, want 24", st.Acc())
	}
	sel := st.Selection(3)
	if got := g.TotalCost(sel); got != 24 {
		t.Errorf("selection cost = %v", got)
	}
}

// TestPlayFig2Transition holds Play to the paper's transition T
// (Sec. III-C, Fig. 3) on Fig. 2: coloring vertex 0 with color 1 (2 in
// the paper's 1-based naming) adds row 1 of each incident matrix into
// the neighbor's vector and charges vertex 0's own cost, and every
// completion then costs what Equation 1 gives the full selection.
func TestPlayFig2Transition(t *testing.T) {
	g := fig2Graph()
	st := New(g, []int{0, 1, 2})
	st.Play(1)
	if st.Acc() != 2 {
		t.Errorf("own cost = %v, want 2", st.Acc())
	}
	if want := (cost.Vector{5 + 7, 0 + 8}); !st.vecs[1].Equal(want) {
		t.Errorf("vertex 1 vector = %v, want %v", st.vecs[1], want)
	}
	if want := (cost.Vector{0 + 5, 0 + 3}); !st.vecs[2].Equal(want) {
		t.Errorf("vertex 2 vector = %v, want %v", st.vecs[2], want)
	}
	for s1 := 0; s1 < 2; s1++ {
		for s2 := 0; s2 < 2; s2++ {
			st.Play(s1)
			st.Play(s2)
			if full := g.TotalCost(pbqp.Selection{1, s1, s2}); st.Acc() != full {
				t.Errorf("selection (1, %d, %d): acc %v, Equation 1 %v", s1, s2, st.Acc(), full)
			}
			st.Undo()
			st.Undo()
		}
	}
}

func TestUndoRestoresExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		g := randgraph.ErdosRenyi(rng, randgraph.Config{N: 8, M: 3, PEdge: 0.5, PInf: 0.2})
		st := New(g, MakeOrder(g, OrderFixed, nil))
		// record reachable state fingerprints while playing randomly
		type fp struct {
			t    int
			acc  cost.Cost
			vecs []cost.Vector
		}
		snap := func() fp {
			f := fp{t: st.Turn(), acc: st.Acc()}
			for _, v := range st.vecs {
				f.vecs = append(f.vecs, v.Clone())
			}
			return f
		}
		var stack []fp
		for !st.Done() && !st.DeadEnd() {
			stack = append(stack, snap())
			legal := []int{}
			for a := 0; a < st.M(); a++ {
				if st.Legal(a) {
					legal = append(legal, a)
				}
			}
			st.Play(legal[rng.Intn(len(legal))])
		}
		for len(stack) > 0 {
			st.Undo()
			want := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if st.Turn() != want.t {
				t.Fatalf("turn after undo = %d, want %d", st.Turn(), want.t)
			}
			if st.Acc().IsInf() != want.acc.IsInf() || (!st.Acc().IsInf() && st.Acc() != want.acc) {
				t.Fatalf("acc after undo = %v, want %v", st.Acc(), want.acc)
			}
			for u, v := range st.vecs {
				if !v.Equal(want.vecs[u]) {
					t.Fatalf("vertex %d vector after undo = %v, want %v", u, v, want.vecs[u])
				}
			}
		}
	}
}

func TestDeadEndDetection(t *testing.T) {
	g := pbqp.New(2, 2)
	g.SetVertexCost(0, cost.Vector{0, 0})
	g.SetVertexCost(1, cost.Vector{0, 0})
	mat := cost.NewMatrix(2, 2)
	for i := range mat.Data {
		mat.Data[i] = cost.Inf
	}
	g.SetEdgeCost(0, 1, mat)
	st := New(g, []int{0, 1})
	if st.DeadEnd() {
		t.Fatal("dead end before any play")
	}
	st.Play(0)
	if !st.DeadEnd() {
		t.Fatal("dead end not detected")
	}
	if st.TerminalValue() != -1 {
		t.Errorf("dead-end value = %v, want -1", st.TerminalValue())
	}
	st.Undo()
	if st.DeadEnd() {
		t.Fatal("dead end persists after undo")
	}
}

func TestIllegalPlayPanics(t *testing.T) {
	g := pbqp.New(1, 2)
	g.SetVertexCost(0, cost.Vector{0, cost.Inf})
	st := New(g, []int{0})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	st.Play(1)
}

func TestUndoAtStartPanics(t *testing.T) {
	st := New(fig2Graph(), []int{0, 1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	st.Undo()
}

func TestTerminalValueAgainstBaseline(t *testing.T) {
	g := fig2Graph()
	st := New(g, []int{0, 1, 2})
	st.Play(0)
	st.Play(0)
	st.Play(0)                           // optimal, cost 11
	if v := st.TerminalValue(); v != 1 { // default baseline is Inf
		t.Errorf("value vs Inf baseline = %v, want 1", v)
	}
	st.SetBaseline(11)
	if v := st.TerminalValue(); v != 0 {
		t.Errorf("value vs equal baseline = %v, want 0", v)
	}
	st.SetBaseline(10)
	if v := st.TerminalValue(); v != -1 {
		t.Errorf("value vs better baseline = %v, want -1", v)
	}
	st.SetBaseline(12)
	if v := st.TerminalValue(); v != 1 {
		t.Errorf("value vs worse baseline = %v, want 1", v)
	}
}

func TestCompareCosts(t *testing.T) {
	if CompareCosts(cost.Inf, cost.Inf) != 0 {
		t.Error("inf vs inf")
	}
	if CompareCosts(cost.Inf, 5) != -1 {
		t.Error("inf vs finite")
	}
	if CompareCosts(5, cost.Inf) != 1 {
		t.Error("finite vs inf")
	}
	if CompareCosts(5, 5.0000000000001) != 0 {
		t.Error("near-tie not a tie")
	}
}

func TestMakeOrderLiberty(t *testing.T) {
	g := pbqp.New(3, 3)
	g.SetVertexCost(0, cost.Vector{0, 0, 0})               // liberty 3
	g.SetVertexCost(1, cost.Vector{cost.Inf, cost.Inf, 0}) // liberty 1
	g.SetVertexCost(2, cost.Vector{cost.Inf, 0, 0})        // liberty 2
	inc := MakeOrder(g, OrderIncLiberty, nil)
	if inc[0] != 1 || inc[1] != 2 || inc[2] != 0 {
		t.Errorf("inc order = %v", inc)
	}
	dec := MakeOrder(g, OrderDecLiberty, nil)
	if dec[0] != 0 || dec[1] != 2 || dec[2] != 1 {
		t.Errorf("dec order = %v", dec)
	}
	fixed := MakeOrder(g, OrderFixed, nil)
	if fixed[0] != 0 || fixed[1] != 1 || fixed[2] != 2 {
		t.Errorf("fixed order = %v", fixed)
	}
	rng := rand.New(rand.NewSource(7))
	random := MakeOrder(g, OrderRandom, rng)
	if len(random) != 3 {
		t.Errorf("random order = %v", random)
	}
}

func TestOrderStrings(t *testing.T) {
	for o, want := range map[Order]string{
		OrderFixed: "fixed", OrderRandom: "random",
		OrderIncLiberty: "inc-liberty", OrderDecLiberty: "dec-liberty",
		Order(9): "order(9)",
	} {
		if o.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(o), o.String(), want)
		}
	}
}

// TestParseOrder pins the four command-line spellings and that an
// unknown one is refused with an error naming all four.
func TestParseOrder(t *testing.T) {
	for spelling, want := range map[string]Order{
		"fixed": OrderFixed, "random": OrderRandom,
		"inc": OrderIncLiberty, "dec": OrderDecLiberty,
	} {
		if got, err := ParseOrder(spelling); err != nil || got != want {
			t.Errorf("ParseOrder(%q) = %v, %v; want %v", spelling, got, err, want)
		}
	}
	for _, bad := range []string{"sideways", "", "dec-liberty", "DEC"} {
		_, err := ParseOrder(bad)
		if err == nil {
			t.Fatalf("ParseOrder(%q) accepted", bad)
		}
		for _, name := range []string{"fixed", "random", "inc", "dec"} {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("ParseOrder(%q) error %q does not name %q", bad, err, name)
			}
		}
	}
}

func TestSelectionRespectsOrder(t *testing.T) {
	g := fig2Graph()
	order := []int{2, 0, 1}
	st := New(g, order)
	st.Play(0) // colors original vertex 2
	st.Play(1) // colors original vertex 0
	sel := st.Selection(3)
	if sel[2] != 0 || sel[0] != 1 || sel[1] != -1 {
		t.Errorf("selection = %v", sel)
	}
}

func TestViewConvention(t *testing.T) {
	g := fig2Graph()
	st := New(g, []int{0, 1, 2})
	v := st.View()
	if v.N() != 3 || v.M() != 2 {
		t.Fatalf("view shape (%d,%d)", v.N(), v.M())
	}
	st.Play(1)
	v = st.View()
	if v.N() != 2 {
		t.Fatalf("view N after play = %d", v.N())
	}
	// active vertex 0 is game vertex 1; its vector gained row 1 of
	// the (0,1) edge matrix: (5,0) + (7,8) = (12,8)
	if !v.Vec(0).Equal(cost.Vector{12, 8}) {
		t.Errorf("view vec(0) = %v", v.Vec(0))
	}
	// edge between the remaining two vertices must be visible
	if nbrs := viewNbrs(v, 0); len(nbrs) != 1 || nbrs[0] != 1 {
		t.Errorf("view nbrs = %v", nbrs)
	}
	if viewMat(v, 0, 1) == nil {
		t.Error("view missing edge matrix")
	}
}

func TestSnapshotIsFrozen(t *testing.T) {
	g := fig2Graph()
	st := New(g, []int{0, 1, 2})
	st.Play(1)
	snap := st.Snapshot()
	before := snap.Vec(0).Clone()
	st.Play(0)
	st.Undo()
	st.Undo()
	if !snap.Vec(0).Equal(before) {
		t.Error("snapshot changed after play/undo")
	}
	if snap.N() != 2 {
		t.Errorf("snapshot N = %d", snap.N())
	}
}

func TestPlayedAndLegalMask(t *testing.T) {
	g := fig2Graph()
	st := New(g, []int{0, 1, 2})
	if !st.Legal(0) || !st.Legal(1) {
		t.Errorf("legal colors = %v, %v, want both", st.Legal(0), st.Legal(1))
	}
	st.Play(0)
	played := st.Played()
	if len(played) != 1 || played[0] != 0 {
		t.Errorf("played = %v", played)
	}
	played[0] = 99 // must be a copy
	if st.Played()[0] != 0 {
		t.Error("Played aliases internal state")
	}
}

// TestPlayUndoWarmAllocFree: Play logs into the undo record of its
// turn, whose buffer the first visit to the turn sizes; every later
// Play/Undo pair at that turn allocates nothing.
func TestPlayUndoWarmAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g, hidden := randgraph.ZeroInf(rng, randgraph.ZeroInfConfig{
		N: 30, M: 6, PEdge: 0.4, HardRatio: 0.4, PEdgeInf: 0.3,
	})
	st := New(g, MakeOrder(g, OrderFixed, nil))
	for u := 0; u < 10; u++ {
		st.Play(hidden[u])
	}
	a := hidden[10]
	st.Play(a) // size turn 10's buffer
	st.Undo()
	if n := testing.AllocsPerRun(100, func() {
		st.Play(a)
		st.Undo()
	}); n != 0 {
		t.Fatalf("a warm Play/Undo pair allocates %.1f times", n)
	}
}

// viewSink keeps the views TestViewAllocations takes alive past the call.
var viewSink gcn.View

// TestViewAllocations: a live view, which a search takes at every leaf
// it evaluates, allocates nothing; a snapshot allocates its copy of the
// window's vectors and their headers, and nothing else.
func TestViewAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g, hidden := randgraph.ZeroInf(rng, randgraph.ZeroInfConfig{
		N: 30, M: 6, PEdge: 0.4, HardRatio: 0.4, PEdgeInf: 0.3,
	})
	st := New(g, MakeOrder(g, OrderFixed, nil))
	for u := 0; u < 10; u++ {
		st.Play(hidden[u])
	}
	if n := testing.AllocsPerRun(100, func() { viewSink = st.View() }); n != 0 {
		t.Errorf("View allocates %.1f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { viewSink = st.Snapshot() }); n > 2 {
		t.Errorf("Snapshot allocates %.1f times, want at most 2", n)
	}
}

// TestDeadCountUnderPlayUndo: along a walk that goes back as often as
// forward, the eager dead-vertex count equals a scan of the uncolored
// suffix at every step — Play only rescans a vector in which a finite
// entry turned infinite, and Undo restores the count it saved.
func TestDeadCountUnderPlayUndo(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 10; trial++ {
		g, _ := randgraph.ZeroInf(rng, randgraph.ZeroInfConfig{
			N: 14, M: 4, PEdge: 0.5, HardRatio: 0.5, PEdgeInf: 0.5,
		})
		st := New(g, MakeOrder(g, OrderRandom, rng))
		for step := 0; step < 300; step++ {
			var legal []int
			for a := 0; a < st.M() && !st.Done(); a++ {
				if st.Legal(a) {
					legal = append(legal, a)
				}
			}
			// a dead end does not stop the walk: it backs out of it, so
			// Undo's restored count is checked as often as Play's
			if st.Turn() > 0 && (len(legal) == 0 || rng.Intn(2) == 0) {
				st.Undo()
			} else if len(legal) > 0 {
				st.Play(legal[rng.Intn(len(legal))])
			}
			dead := 0
			for _, vec := range st.vecs[st.Turn():] {
				if vec.AllInf() {
					dead++
				}
			}
			if st.dead != dead {
				t.Fatalf("trial %d step %d: %d dead vertices counted, %d in the suffix", trial, step, st.dead, dead)
			}
		}
	}
}

// culprits collects State.Culprits(v) as a sorted slice.
func culprits(st *State, v int) []int {
	var turns []int
	st.Culprits(v, func(t int) { turns = append(turns, t) })
	sort.Ints(turns)
	return turns
}

// TestCulpritsNameTheTurnsThatKilled pins the conflict sets the
// backjumping solver reads: per infinite entry of a vertex, the turn
// that made it infinite (none for an entry infinite from the start, and
// not a turn whose Play found it infinite already), and Killed names
// the vertex the last Play left with no color.
func TestCulpritsNameTheTurnsThatKilled(t *testing.T) {
	g := pbqp.New(4, 3)
	for v := 0; v < 3; v++ {
		g.SetVertexCost(v, cost.Vector{0, 0, 0})
	}
	g.SetVertexCost(3, cost.Vector{0, 0, cost.Inf})
	kill := func(col int) *cost.Matrix {
		mat := cost.NewMatrix(3, 3)
		for row := 0; row < 3; row++ {
			mat.Set(row, col, cost.Inf)
		}
		return mat
	}
	g.SetEdgeCost(0, 3, kill(0))
	g.SetEdgeCost(1, 3, kill(0)) // finds v3's color 0 dead already
	g.SetEdgeCost(2, 3, kill(1))
	st := New(g, []int{0, 1, 2, 3})
	if got := culprits(st, 3); len(got) != 0 {
		t.Errorf("culprits before any play = %v, want none", got)
	}
	st.Play(0)
	if st.Killed() != -1 {
		t.Errorf("Killed = %d after a play that killed nothing", st.Killed())
	}
	st.Play(0)
	if got := culprits(st, 3); len(got) != 1 || got[0] != 0 {
		t.Errorf("culprits of v3 = %v, want [0]", got)
	}
	st.Play(0)
	if !st.DeadEnd() || st.Killed() != 3 {
		t.Fatalf("dead end %v, Killed = %d, want v3 killed", st.DeadEnd(), st.Killed())
	}
	if got := culprits(st, 3); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("culprits of v3 = %v, want [0 2]", got)
	}
	st.Undo()
	if got := culprits(st, 3); len(got) != 1 || got[0] != 0 {
		t.Errorf("culprits of v3 after Undo = %v, want [0]", got)
	}
}

// TestCulpritsOfSaturatedSums covers finite costs that add up into the
// infinite range. Every colored neighbor is a culprit then, even one
// that added nothing: v0 plays a color that adds 0 to v3, but its other
// color adds a negative cost that keeps v3 finite.
func TestCulpritsOfSaturatedSums(t *testing.T) {
	big := cost.Cost(math.MaxFloat64 / 6)
	g := pbqp.New(4, 2)
	for v := 0; v < 3; v++ {
		g.SetVertexCost(v, cost.Vector{0, 0})
	}
	g.SetVertexCost(3, cost.Vector{0, cost.Inf})
	g.SetEdgeCost(0, 3, cost.NewMatrixFrom([][]cost.Cost{{0, 0}, {-big, 0}}))
	g.SetEdgeCost(1, 3, cost.NewMatrixFrom([][]cost.Cost{{big, 0}, {big, 0}}))
	g.SetEdgeCost(2, 3, cost.NewMatrixFrom([][]cost.Cost{{big, 0}, {big, 0}}))
	st := New(g, []int{0, 1, 2, 3})
	for _, first := range []int{1, 0} {
		st.Play(first)
		st.Play(0)
		st.Play(0)
		if st.DeadEnd() != (first == 0) {
			t.Fatalf("v0 = %d: dead end %v", first, st.DeadEnd())
		}
		if first == 1 {
			st.Undo()
			st.Undo()
			st.Undo()
		}
	}
	if st.Killed() != 3 {
		t.Fatalf("Killed = %d, want 3", st.Killed())
	}
	if got := culprits(st, 3); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("culprits of v3 = %v, want [0 1 2]", got)
	}
}

// Played returns the colors chosen so far, indexed by game vertex.
func (s *State) Played() []int { return append([]int(nil), s.played...) }
