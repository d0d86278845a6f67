package game

import (
	"math"
	"math/rand"
	"testing"

	"pbqprl/internal/cost"
	"pbqprl/internal/pbqp"
)

// intGraph is a random graph with small non-negative integer costs and
// a few infinite entries: integer sums are exact in any order, so a
// bound and a completion's cost compare without rounding.
func intGraph(rng *rand.Rand, n, m int) *pbqp.Graph {
	entry := func() cost.Cost {
		if rng.Intn(12) == 0 {
			return cost.Inf
		}
		return cost.Cost(rng.Intn(9))
	}
	g := pbqp.New(n, m)
	for u := 0; u < n; u++ {
		v := make(cost.Vector, m)
		for i := range v {
			v[i] = entry()
		}
		v[rng.Intn(m)] = cost.Cost(rng.Intn(9))
		g.SetVertexCost(u, v)
	}
	for u := 0; u < n; u++ {
		for w := u + 1; w < n; w++ {
			if rng.Intn(2) == 0 {
				continue
			}
			mat := cost.NewMatrix(m, m)
			for i := range mat.Data {
				mat.Data[i] = entry()
			}
			g.SetEdgeCost(u, w, mat)
		}
	}
	return g
}

// playRandom plays legal colors until the game is done, reaches a dead
// end or has played turns moves.
func playRandom(rng *rand.Rand, st *State, turns int) {
	for st.Turn() < turns && !st.Done() && !st.DeadEnd() {
		var legal []int
		for a := 0; a < st.M(); a++ {
			if st.Legal(a) {
				legal = append(legal, a)
			}
		}
		st.Play(legal[rng.Intn(len(legal))])
	}
}

// TestLowerBoundAtDoneIsAcc: with nothing left to color, the bound is
// the accumulated cost itself, bit for bit, so HeuristicValue is the
// graded reward of the finished coloring against the baseline.
func TestLowerBoundAtDoneIsAcc(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	games := 0
	for trial := 0; games < 40; trial++ {
		g := intGraph(rng, 2+rng.Intn(7), 2+rng.Intn(3))
		// non-integer costs too: the bound must not re-add anything
		for u := 0; u < g.NumVertices(); u++ {
			v := g.VertexCost(u).Clone()
			for i := range v {
				if !v[i].IsInf() {
					v[i] += cost.Cost(rng.Float64())
				}
			}
			g.SetVertexCost(u, v)
		}
		st := New(g, MakeOrder(g, OrderRandom, rng))
		playRandom(rng, st, g.NumVertices())
		if !st.Done() {
			continue
		}
		games++
		if math.Float64bits(float64(st.LowerBound())) != math.Float64bits(float64(st.Acc())) {
			t.Fatalf("trial %d: LowerBound %v != Acc %v at Done", trial, st.LowerBound(), st.Acc())
		}
		for _, base := range []cost.Cost{cost.Inf, 0, st.Acc(), st.Acc() / 2, st.Acc() * 2, st.Acc() + 1} {
			st.SetBaseline(base)
			if got, want := st.HeuristicValue(), GradedReward(st.Acc(), base); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d, baseline %v: HeuristicValue %v, graded terminal value %v", trial, base, got, want)
			}
		}
	}
}

func TestLowerBoundInfAtDeadEnd(t *testing.T) {
	g := pbqp.New(2, 2)
	g.SetVertexCost(0, cost.Vector{0, 0})
	g.SetVertexCost(1, cost.Vector{0, 0})
	mat := cost.NewMatrix(2, 2)
	for i := range mat.Data {
		mat.Data[i] = cost.Inf
	}
	g.SetEdgeCost(0, 1, mat)
	st := New(g, []int{0, 1})
	st.Play(0)
	if !st.DeadEnd() {
		t.Fatal("no dead end")
	}
	if lb := st.LowerBound(); !lb.IsInf() {
		t.Errorf("LowerBound at a dead end = %v, want Inf", lb)
	}
	st.SetBaseline(5)
	if v := st.HeuristicValue(); v != -1 {
		t.Errorf("HeuristicValue at a dead end = %v, want -1", v)
	}
}

// TestAccAndLowerBoundSaturate: Acc and LowerBound add through
// cost.Add, so the running sum has Inf's bits from the term that takes
// it into the infinite range on, not those of a larger float (Eq. 1's
// ∞ + x = ∞). Each 4e307 is finite, below the threshold MaxFloat64/4;
// the first two already sum past it.
func TestAccAndLowerBoundSaturate(t *testing.T) {
	g := pbqp.New(3, 1)
	for u := 0; u < 3; u++ {
		g.SetVertexCost(u, cost.Vector{4e307})
	}
	st := New(g, []int{0, 1, 2})
	isInf := func(what string, got cost.Cost) {
		t.Helper()
		if math.Float64bits(float64(got)) != math.Float64bits(float64(cost.Inf)) {
			t.Errorf("%s = %v (%x), want the bits of cost.Inf", what, got, math.Float64bits(float64(got)))
		}
	}
	isInf("LowerBound before the first move", st.LowerBound())
	st.Play(0)
	st.Play(0)
	isInf("Acc after two moves", st.Acc())
	st.Play(0)
	isInf("Acc after three moves", st.Acc())
}
