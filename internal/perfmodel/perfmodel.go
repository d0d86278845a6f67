// Package perfmodel estimates the dynamic cost of a compiled function
// under a register assignment: a deterministic cycle model that stands
// in for running generated code on hardware (Section V-C reports
// speedups on an i7-9700K; the reproducible shape is the *ratio*
// between allocators, which this model preserves — spill traffic inside
// hot loops dominates).
package perfmodel

import (
	"math"

	"pbqprl/internal/ir"
	"pbqprl/internal/regalloc"
)

// Params are the cycle weights of the model.
type Params struct {
	// Base is the cost of executing one instruction.
	Base float64
	// Load and Store are the extra cycles for reloading a spilled use
	// and storing a spilled def.
	Load, Store float64
}

// DefaultParams returns weights resembling a small out-of-order core
// with an L1-hit stack slot.
func DefaultParams() Params { return Params{Base: 1, Load: 3, Store: 2} }

// EstimateFunc returns the estimated cycles of one function: each block
// contributes its instruction costs multiplied by 10^loopDepth (the
// standard static frequency estimate). Moves whose source and
// destination land in the same register cost nothing (coalesced); a
// spilled-to-spilled move costs a load plus a store.
func EstimateFunc(f *ir.Func, asn regalloc.Assignment, p Params) float64 {
	total := 0.0
	for _, blk := range f.Blocks {
		freq := math.Pow(10, float64(blk.LoopDepth))
		for _, instr := range blk.Instrs {
			c := p.Base
			if instr.Op == ir.OpMove && instr.DefValue() >= 0 && len(instr.Uses) == 1 {
				src, dst := instr.Uses[0], instr.Def
				if asn.Reg[src] >= 0 && asn.Reg[src] == asn.Reg[dst] {
					total += 0 // coalesced away
					continue
				}
			}
			for _, u := range instr.Uses {
				if asn.Reg[u] == -1 {
					c += p.Load
				}
			}
			if d := instr.DefValue(); d >= 0 && asn.Reg[d] == -1 {
				c += p.Store
			}
			total += c * freq
		}
	}
	return total
}

// Speedup returns base/other: how much faster `other` cycles are than
// `base` cycles (>1 means faster than the baseline allocator).
func Speedup(baseCycles, otherCycles float64) float64 {
	// Exactly zero cycles only comes from an empty schedule.
	if otherCycles == 0 {
		return math.Inf(1)
	}
	return baseCycles / otherCycles
}
