package regalloc

import (
	"pbqprl/internal/cost"
	"pbqprl/internal/ir"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/solve"
)

// SpillColor is the PBQP color representing "spill this value"; physical
// register r is color r+1. The total color count is NumRegs+1, which is
// 13 on the default target — the same m the ATE experiments use, so one
// trained network serves both evaluations.
const SpillColor = 0

// BuildPBQP constructs the register-allocation PBQP problem of the
// function, the structure LLVM's PBQP module produces:
//
//   - every value gets a vertex with NumRegs+1 colors; color 0 is the
//     spill option with the value's loop-weighted spill cost, register
//     colors cost 0 where the class allows and ∞ where it does not;
//   - interference edges carry ∞ on (r, r) register diagonals (two
//     spilled values never conflict);
//   - move-related pairs get a coalescing hint: a negative cost on the
//     same-register diagonal proportional to the move's weight.
//
// Both matrices are diagonal, so each is installed as both orientations
// of its edge, and every interference edge shares one (the pbqp
// ownership rule): no edge gets a copy of its own.
func BuildPBQP(in Input) *pbqp.Graph {
	m := in.Target.NumRegs + 1
	g := pbqp.New(in.F.NumValues, m)

	for v := 0; v < in.F.NumValues; v++ {
		vec := cost.NewInfVector(m)
		vec[SpillColor] = cost.Cost(in.Info.SpillWeight[v])
		for r, ok := range in.allowedSet(ir.Value(v)) {
			if ok {
				vec[r+1] = 0
			}
		}
		g.SetVertexCost(v, vec)
	}

	interfere := cost.NewMatrix(m, m)
	for r := 1; r < m; r++ {
		interfere.Set(r, r, cost.Inf)
	}
	seen := make(map[[2]int]bool)
	for v := 0; v < in.F.NumValues; v++ {
		for u := range in.Info.Interference[v] {
			a, b := v, int(u)
			if a > b {
				a, b = b, a
			}
			if seen[[2]int{a, b}] {
				continue
			}
			seen[[2]int{a, b}] = true
			g.SetEdgePair(a, b, interfere, interfere)
		}
	}

	// A move pair that already has an edge interferes: the hint's finite
	// diagonal added to interfere's ∞ one would leave interfere's bits,
	// so skipping the pair gives what the sum would.
	for v := 0; v < in.F.NumValues; v++ {
		for u := range in.Info.MoveRelated[v] {
			if int(u) <= v || seen[[2]int{v, int(u)}] {
				continue
			}
			w := in.Info.SpillWeight[v]
			if in.Info.SpillWeight[u] < w {
				w = in.Info.SpillWeight[u]
			}
			hint := cost.NewMatrix(m, m)
			bonus := cost.Cost(-0.25 * (1 + w))
			for r := 1; r < m; r++ {
				hint.Set(r, r, bonus)
			}
			g.SetEdgePair(v, int(u), hint, hint)
		}
	}
	return g
}

// FromSelection converts a PBQP selection back to a register
// assignment.
func FromSelection(sel pbqp.Selection) Assignment {
	reg := make([]int, len(sel))
	for v, c := range sel {
		if c <= SpillColor {
			reg[v] = -1
		} else {
			reg[v] = c - 1
		}
	}
	return Assignment{Reg: reg}
}

// PBQPAlloc builds the PBQP problem for in, solves it with solver, and
// returns the assignment together with the solver result (for cost-sum
// reporting). An infeasible result falls back to spilling everything,
// which is always legal.
func PBQPAlloc(in Input, solver solve.Solver) (Assignment, solve.Result) {
	g := BuildPBQP(in)
	res := solver.Solve(g)
	if !res.Feasible {
		reg := make([]int, in.F.NumValues)
		for v := range reg {
			reg[v] = -1
		}
		return Assignment{Reg: reg}, res
	}
	return FromSelection(res.Selection), res
}
