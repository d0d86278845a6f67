package solve_test

import (
	"testing"

	"pbqprl/internal/cost"
	"pbqprl/internal/decomp"
	"pbqprl/internal/game"
	"pbqprl/internal/mcts"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/reduce"
	"pbqprl/internal/rl"
	"pbqprl/internal/solve/brute"
	"pbqprl/internal/solve/liberty"
	"pbqprl/internal/solve/scholz"
)

// graphFromBytes deterministically decodes a small PBQP graph (1–12
// vertices, 1–3 colors, costs in {0..6, inf}) from fuzz input. Small
// enough that the brute solver is an exact oracle in well under a
// millisecond.
func graphFromBytes(data []byte) *pbqp.Graph {
	if len(data) < 2 {
		return nil
	}
	n := int(data[0]%12) + 1
	m := int(data[1]%3) + 1
	idx := 2
	next := func() byte {
		if idx < len(data) {
			b := data[idx]
			idx++
			return b
		}
		return 0
	}
	pick := func() cost.Cost {
		b := next()
		if b%4 == 3 {
			return cost.Inf
		}
		return cost.Cost(b % 7)
	}
	g := pbqp.New(n, m)
	for u := 0; u < n; u++ {
		vec := make(cost.Vector, m)
		for c := range vec {
			vec[c] = pick()
		}
		g.SetVertexCost(u, vec)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if next()%2 == 0 {
				continue
			}
			mat := cost.NewMatrix(m, m)
			for i := range mat.Data {
				mat.Data[i] = pick()
			}
			if mat.IsZero() {
				continue
			}
			g.SetEdgeCost(u, v, mat)
		}
	}
	return g
}

// FuzzSolverAgreement cross-checks the solver stack on tiny random
// graphs against the exact brute-force oracle:
//
//   - liberty enumeration is complete, so it must agree with brute on
//     feasibility exactly, and its (first-feasible) cost can never beat
//     the optimum;
//   - the R0/R1/R2 reduction is exact, so brute-on-the-remainder plus
//     Expand must reproduce the optimal cost bit-for-bit;
//   - scholz's RN heuristic may miss feasible solutions (the paper's 9
//     of 10 ATE failures), so agreement is one-sided: whenever scholz
//     (with or without prior exact reduction) claims feasibility the
//     oracle must concur and the claimed cost is ≥ the optimum;
//   - the decomposition pipeline (reduce → block-cut split → per-block
//     brute → recombine) is exact for an exact inner solver, so it must
//     match brute on feasibility and cost bit-for-bit;
//   - rl-bt with no node budget searches until it has proved the graph
//     infeasible, whatever it skips (forced colors, levels its conflict
//     sets jump over), so it must match brute on feasibility exactly;
//     it stops at its first coloring, whose cost is ≥ the optimum;
//   - one-way rl gives up at its first dead end, so like scholz it is
//     one-sided: a coloring it claims must be one brute agrees exists;
//   - every reported selection must re-evaluate to the reported cost.
func FuzzSolverAgreement(f *testing.F) {
	f.Add([]byte{2, 1, 0, 1, 2, 3, 1, 0, 5})
	f.Add([]byte{4, 2, 3, 3, 3, 1, 0, 2})
	f.Add([]byte{1, 0, 6})
	f.Add([]byte{3, 1, 7, 7, 7, 7, 7, 7, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := graphFromBytes(data)
		if g == nil {
			return
		}
		exact := brute.Solver{}.Solve(g)
		if exact.Feasible && g.TotalCost(exact.Selection) != exact.Cost {
			t.Fatalf("brute selection does not re-evaluate to its cost\n%s", g)
		}

		lib := liberty.Solver{}.Solve(g)
		if lib.Feasible != exact.Feasible {
			t.Fatalf("liberty feasible=%v, brute feasible=%v\n%s", lib.Feasible, exact.Feasible, g)
		}
		if lib.Feasible {
			if g.TotalCost(lib.Selection) != lib.Cost {
				t.Fatalf("liberty selection does not re-evaluate to its cost\n%s", g)
			}
			if lib.Cost.Less(exact.Cost) {
				t.Fatalf("liberty cost %v beats the optimum %v\n%s", lib.Cost, exact.Cost, g)
			}
		}

		red := reduce.Apply(g)
		redExact := brute.Solver{}.Solve(red.Graph)
		if exact.Feasible {
			if !redExact.Feasible {
				t.Fatalf("reduce+brute infeasible on a feasible graph\n%s", g)
			}
			full, ok := red.Expand(redExact.Selection.Clone())
			if !ok {
				t.Fatalf("reduction expansion failed on a feasible graph\n%s", g)
			}
			if got := g.TotalCost(full); got != exact.Cost {
				t.Fatalf("reduce+brute cost %v, optimum %v\n%s", got, exact.Cost, g)
			}
		} else if redExact.Feasible {
			// The remainder can be feasible on its own (e.g. an isolated
			// all-infinite vertex was eliminated by R0), but then the
			// expansion must report the infeasibility.
			if full, ok := red.Expand(redExact.Selection.Clone()); ok && !g.TotalCost(full).IsInf() {
				t.Fatalf("reduce+brute produced a finite coloring of an infeasible graph\n%s", g)
			}
		}

		dec := decomp.Wrap(brute.Solver{}).Solve(g)
		if dec.Feasible != exact.Feasible {
			t.Fatalf("decomp feasible=%v, brute feasible=%v\n%s", dec.Feasible, exact.Feasible, g)
		}
		if dec.Feasible {
			if g.TotalCost(dec.Selection) != dec.Cost {
				t.Fatalf("decomp selection does not re-evaluate to its cost\n%s", g)
			}
			if dec.Cost != exact.Cost {
				t.Fatalf("decomp cost %v, optimum %v\n%s", dec.Cost, exact.Cost, g)
			}
		}

		bt := (&rl.Solver{Net: mcts.Uniform{}, Cfg: rl.Config{
			K: 2, Order: game.OrderIncLiberty, Backtrack: true, ReinvokeMCTS: true,
		}}).Solve(g)
		if bt.Feasible != exact.Feasible {
			t.Fatalf("rl-bt feasible=%v, brute feasible=%v\n%s", bt.Feasible, exact.Feasible, g)
		}
		if bt.Feasible {
			if g.TotalCost(bt.Selection) != bt.Cost {
				t.Fatalf("rl-bt selection does not re-evaluate to its cost\n%s", g)
			}
			if bt.Cost.Less(exact.Cost) {
				t.Fatalf("rl-bt cost %v beats the optimum %v\n%s", bt.Cost, exact.Cost, g)
			}
		}

		oneWay := (&rl.Solver{Net: mcts.Uniform{}, Cfg: rl.Config{K: 2, Order: game.OrderIncLiberty}}).Solve(g)
		if oneWay.Feasible {
			if !exact.Feasible {
				t.Fatalf("one-way rl feasible on an infeasible graph\n%s", g)
			}
			if g.TotalCost(oneWay.Selection) != oneWay.Cost {
				t.Fatalf("one-way rl selection does not re-evaluate to its cost\n%s", g)
			}
			if oneWay.Cost.Less(exact.Cost) {
				t.Fatalf("one-way rl cost %v beats the optimum %v\n%s", oneWay.Cost, exact.Cost, g)
			}
		}

		sch := scholz.Solver{}.Solve(g)
		if sch.Feasible {
			if !exact.Feasible {
				t.Fatalf("scholz feasible on an infeasible graph\n%s", g)
			}
			if g.TotalCost(sch.Selection) != sch.Cost {
				t.Fatalf("scholz selection does not re-evaluate to its cost\n%s", g)
			}
			if sch.Cost.Less(exact.Cost) {
				t.Fatalf("scholz cost %v beats the optimum %v\n%s", sch.Cost, exact.Cost, g)
			}
		}

		schRed := scholz.Solver{}.Solve(red.Graph)
		if schRed.Feasible {
			full, ok := red.Expand(schRed.Selection.Clone())
			if ok && !g.TotalCost(full).IsInf() {
				if !exact.Feasible {
					t.Fatalf("reduce+scholz produced a finite coloring of an infeasible graph\n%s", g)
				}
				if got := g.TotalCost(full); got.Less(exact.Cost) {
					t.Fatalf("reduce+scholz cost %v beats the optimum %v\n%s", got, exact.Cost, g)
				}
			}
		}
	})
}
