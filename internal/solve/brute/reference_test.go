package brute

import (
	"math/rand"
	"testing"

	"pbqprl/internal/cost"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/randgraph"
)

// reference is the solver this package had before it played the game:
// it enumerates colorings in vertex order, re-sums each partial cost
// with an edge lookup to every earlier vertex, and on a graph with any
// negative entry prunes only infinite partial costs. Slow but plain, it
// is the oracle TestMatchesReference holds the game's bound to.
type reference struct {
	g       *pbqp.Graph
	vs      []int
	sel     []int // color of vs[i] for i < depth
	best    cost.Cost
	bestSel []int
	prune   bool
}

// referenceSolve returns the optimum of g, infinite if g has no finite
// coloring.
func referenceSolve(g *pbqp.Graph) cost.Cost {
	vs := g.Vertices()
	r := &reference{g: g, vs: vs, sel: make([]int, len(vs)), best: cost.Inf, prune: !hasNegativeCosts(g)}
	r.run(0, 0)
	if r.best.IsInf() {
		return cost.Inf
	}
	sel := make(pbqp.Selection, g.NumVertices())
	for i, u := range vs {
		sel[u] = r.bestSel[i]
	}
	return g.TotalCost(sel)
}

// hasNegativeCosts reports whether any vertex or edge cost is negative.
func hasNegativeCosts(g *pbqp.Graph) bool {
	for _, u := range g.Vertices() {
		for _, c := range g.VertexCost(u) {
			if c.Less(0) {
				return true
			}
		}
	}
	for _, e := range g.Edges() {
		for _, c := range e.M.Data {
			if c.Less(0) {
				return true
			}
		}
	}
	return false
}

// worse reports whether partial can be pruned against the incumbent.
func (r *reference) worse(partial cost.Cost) bool {
	if partial.IsInf() {
		return true
	}
	return r.prune && !partial.Less(r.best)
}

func (r *reference) run(depth int, acc cost.Cost) {
	if depth == len(r.vs) {
		if acc.Less(r.best) {
			r.best = acc
			r.bestSel = append(r.bestSel[:0], r.sel...)
		}
		return
	}
	u := r.vs[depth]
	vec := r.g.VertexCost(u)
	for c := 0; c < r.g.M(); c++ {
		partial := acc.Add(vec[c])
		if r.worse(partial) {
			continue
		}
		// add edge costs to already-colored neighbors
		for j := 0; j < depth; j++ {
			if m := r.g.EdgeCost(u, r.vs[j]); m != nil {
				partial = partial.Add(m.At(c, r.sel[j]))
				if r.worse(partial) {
					break
				}
			}
		}
		if r.worse(partial) {
			continue
		}
		r.sel[depth] = c
		r.run(depth+1, partial)
	}
}

// spillGraph is a register-allocation-shaped graph: color 0 spills at
// a positive weight, the other colors are registers (a few of them
// forbidden), interfering pairs may not share a register, and move
// pairs earn a negative coalescing hint for sharing one.
func spillGraph(rng *rand.Rand, n, m int) *pbqp.Graph {
	g := pbqp.New(n, m)
	for u := 0; u < n; u++ {
		vec := make(cost.Vector, m)
		vec[0] = cost.Cost(1 + rng.Intn(20))
		for r := 1; r < m; r++ {
			if rng.Intn(5) == 0 {
				vec[r] = cost.Inf
			}
		}
		g.SetVertexCost(u, vec)
	}
	interfere := cost.NewMatrix(m, m)
	for r := 1; r < m; r++ {
		interfere.Set(r, r, cost.Inf)
	}
	for u := 0; u < n; u++ {
		for w := u + 1; w < n; w++ {
			switch rng.Intn(4) {
			case 0:
				g.SetEdgeCost(u, w, interfere)
			case 1:
				hint := cost.NewMatrix(m, m)
				bonus := cost.Cost(-1 - rng.Intn(8))
				for r := 1; r < m; r++ {
					hint.Set(r, r, bonus)
				}
				g.SetEdgeCost(u, w, hint)
			}
		}
	}
	return g
}

// hintGraph is an Erdős–Rényi graph whose finite vertex and edge
// entries each turn negative with probability one in three.
func hintGraph(rng *rand.Rand, n, m int) *pbqp.Graph {
	g := randgraph.ErdosRenyi(rng, randgraph.Config{N: n, M: m, PEdge: 0.5, PInf: 0.1})
	negate := func(v []cost.Cost) {
		for i, c := range v {
			if !c.IsInf() && rng.Intn(3) == 0 {
				v[i] = -c
			}
		}
	}
	for u := 0; u < n; u++ {
		vec := g.VertexCost(u).Clone()
		negate(vec)
		g.SetVertexCost(u, vec)
	}
	for _, e := range g.Edges() {
		mat := e.M.Clone()
		negate(mat.Data)
		g.SetEdgeCost(e.U, e.V, mat)
	}
	return g
}

// TestMatchesReference holds the game's branch and bound to the
// reference on 300 small graphs of four kinds. The hint graphs carry
// negative edge entries, on which a bound that leaves out the edges
// between uncolored vertices prunes the optimum away.
func TestMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 300; trial++ {
		var g *pbqp.Graph
		kind := []string{"erdos-renyi", "zero-inf", "spill", "hint"}[trial%4]
		switch kind {
		case "erdos-renyi":
			g = randgraph.ErdosRenyi(rng, randgraph.Config{
				N: 2 + rng.Intn(13), M: 2 + rng.Intn(3), PEdge: 0.3, PInf: 0.1,
			})
		case "zero-inf":
			g, _ = randgraph.ZeroInf(rng, randgraph.ZeroInfConfig{
				N: 2 + rng.Intn(13), M: 4 + rng.Intn(3), PEdge: 0.4, HardRatio: 0.4, PEdgeInf: 0.5,
			})
		case "spill":
			g = spillGraph(rng, 2+rng.Intn(7), 2+rng.Intn(3))
		case "hint":
			g = hintGraph(rng, 2+rng.Intn(7), 2+rng.Intn(2))
		}
		wantCost := referenceSolve(g)
		res := Solver{}.Solve(g)
		if res.Feasible != !wantCost.IsInf() {
			t.Fatalf("trial %d (%s): feasible = %v, reference cost %v\n%s", trial, kind, res.Feasible, wantCost, g)
		}
		if res.Feasible && !approxEq(res.Cost, wantCost) {
			t.Fatalf("trial %d (%s): cost = %v, reference %v\n%s", trial, kind, res.Cost, wantCost, g)
		}
	}
}
