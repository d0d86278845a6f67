package experiments

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"pbqprl/internal/llvmsuite"
	"pbqprl/internal/net"
	"pbqprl/internal/regalloc"
	"pbqprl/internal/solve/scholz"
)

// TestLLVMSolverPinned pins minimization inference, the search E6, E7
// and llvm-bench run: LLVMSolver with k = 10 and an untrained, seeded
// network, on five of the smallest suite functions against their
// Scholz–Eckstein cost. States, the bits of Cost and a digest of the
// Selection are the whole outcome of a run, so a change to how the
// search scores a position that is meant to keep every bit must leave
// each row as it is. The nestedloop row is the one that tells the
// graded terminal value from the ternary one; the 300-node random row
// runs out of budget.
func TestLLVMSolverPinned(t *testing.T) {
	target := regalloc.DefaultTarget()
	for _, tc := range []struct {
		program  string
		fn       int
		maxNodes int64
		states   int64
		costBits uint64
		sel      string // first 12 hex digits of the SHA-256 of fmt.Sprint(Selection)
	}{
		{"nestedloop", 0, 2000, 451, 0x4029000000000000, "f68de644686e"},
		{"hash", 0, 2000, 525, 0x4053200000000000, "b7bd5d396f2f"},
		{"FloatMM", 0, 2000, 560, 0x405c400000000000, "cf2a9c72190f"},
		{"random", 0, 2000, 700, 0x4043000000000000, "85c1c6626b02"},
		{"random", 0, 300, 300, 0x7fefffffffffffff, "4f53cda18c2b"},
		{"Oscar", 0, 2000, 850, 0x409b4a0000000000, "f6bdc2cb139e"},
	} {
		t.Run(fmt.Sprintf("%s/%d/%d", tc.program, tc.fn, tc.maxNodes), func(t *testing.T) {
			b := llvmsuite.Generate(tc.program)
			g := regalloc.BuildPBQP(regalloc.NewInput(b.Prog.Funcs[tc.fn], target, b.Allowed[tc.fn]))
			base := (scholz.Solver{}).Solve(g)
			s := LLVMSolver(net.New(DefaultNetConfig()), 10, base.Cost)
			s.Cfg.MaxNodes = tc.maxNodes
			res := s.Solve(g)
			bits := math.Float64bits(float64(res.Cost))
			sel := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprint(res.Selection))))[:12]
			if res.States != tc.states || bits != tc.costBits || sel != tc.sel {
				t.Errorf("states %d, cost bits %#x (%v), selection %s; want %d, %#x, %s",
					res.States, bits, res.Cost, sel, tc.states, tc.costBits, tc.sel)
			}
		})
	}
}
