package brute

import (
	"math/rand"
	"testing"

	"pbqprl/internal/cost"
	"pbqprl/internal/game"
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
func playRandom(rng *rand.Rand, st *game.State, turns int) {
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

// TestLowerBoundUnderBrute: on non-negative graphs, the bound of every
// prefix of a random play is at most the cost of the best completion of
// that prefix, which brute finds on the graph with the prefix's colors
// pinned; after the last turn the two are equal. A dead end's bound is
// infinite.
func TestLowerBoundUnderBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	checked := 0
	for trial := 0; trial < 60; trial++ {
		g := intGraph(rng, 2+rng.Intn(6), 2+rng.Intn(3))
		st := game.New(g, game.MakeOrder(g, game.OrderRandom, rng))
		for turns := 0; turns <= g.NumVertices(); turns++ {
			playRandom(rng, st, turns)
			if st.DeadEnd() {
				if !st.LowerBound().IsInf() {
					t.Fatalf("trial %d: dead end with LowerBound %v", trial, st.LowerBound())
				}
				break
			}
			pinned := g.Clone()
			for u, a := range st.Selection(g.NumVertices()) {
				if a < 0 {
					continue
				}
				v := cost.NewInfVector(g.M())
				v[a] = g.VertexCost(u)[a]
				pinned.SetVertexCost(u, v)
			}
			best := (Solver{}).Solve(pinned)
			if !best.Feasible {
				continue
			}
			checked++
			if lb := st.LowerBound(); lb > best.Cost || (st.Done() && lb != best.Cost) {
				t.Fatalf("trial %d, turn %d of %d: LowerBound %v, best completion %v\n%s",
					trial, st.Turn(), g.NumVertices(), lb, best.Cost, g)
			}
		}
	}
	if checked < 100 {
		t.Fatalf("only %d prefixes had a completion", checked)
	}
}
