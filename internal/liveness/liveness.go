// Package liveness implements classic backward dataflow liveness over
// the internal/ir CFG, interference-graph construction, and the
// loop-weighted spill costs LLVM-style allocators consume.
package liveness

import (
	"maps"
	"math"

	"pbqprl/internal/ir"
)

// Info is the result of analyzing one function.
type Info struct {
	Func *ir.Func
	// LiveIn and LiveOut are per-block live value sets.
	LiveIn, LiveOut []map[ir.Value]bool
	// Interference is the symmetric adjacency over values: two values
	// interfere when one is live at a definition point of the other
	// (the standard Chaitin condition, with the move exception: a move
	// does not make its source interfere with its destination).
	Interference []map[ir.Value]bool
	// MoveRelated lists, per value, the values it is move-connected to
	// (coalescing / hint candidates).
	MoveRelated []map[ir.Value]bool
	// SpillWeight estimates the dynamic cost of spilling each value:
	// the sum over its defs and uses of 10^loopDepth.
	SpillWeight []float64
	// Spans reports whether a value is live across a block boundary
	// (used by the FAST allocator, which only keeps block-local values
	// in registers).
	Spans []bool
}

// Analyze computes liveness, interference and spill weights for f.
func Analyze(f *ir.Func) *Info {
	n := len(f.Blocks)
	info := &Info{
		Func:         f,
		LiveIn:       make([]map[ir.Value]bool, n),
		LiveOut:      make([]map[ir.Value]bool, n),
		Interference: make([]map[ir.Value]bool, f.NumValues),
		MoveRelated:  make([]map[ir.Value]bool, f.NumValues),
		SpillWeight:  make([]float64, f.NumValues),
		Spans:        make([]bool, f.NumValues),
	}
	for v := 0; v < f.NumValues; v++ {
		info.Interference[v] = make(map[ir.Value]bool)
		info.MoveRelated[v] = make(map[ir.Value]bool)
	}
	for b := 0; b < n; b++ {
		info.LiveIn[b] = make(map[ir.Value]bool)
		info.LiveOut[b] = make(map[ir.Value]bool)
	}

	// backward fixpoint
	changed := true
	for changed {
		changed = false
		for b := n - 1; b >= 0; b-- {
			blk := f.Blocks[b]
			out := make(map[ir.Value]bool)
			for _, s := range blk.Succs {
				for v := range info.LiveIn[s] {
					out[v] = true
				}
			}
			in := make(map[ir.Value]bool, len(out))
			for v := range out {
				in[v] = true
			}
			for i := len(blk.Instrs) - 1; i >= 0; i-- {
				instr := blk.Instrs[i]
				if d := instr.DefValue(); d >= 0 {
					delete(in, d)
				}
				for _, u := range instr.Uses {
					in[u] = true
				}
			}
			if !maps.Equal(out, info.LiveOut[b]) || !maps.Equal(in, info.LiveIn[b]) {
				info.LiveOut[b] = out
				info.LiveIn[b] = in
				changed = true
			}
		}
	}

	// interference, move relations, weights, span flags
	for b, blk := range f.Blocks {
		weight := math.Pow(10, float64(blk.LoopDepth))
		live := make(map[ir.Value]bool, len(info.LiveOut[b]))
		for v := range info.LiveOut[b] {
			live[v] = true
			info.Spans[v] = true
		}
		for v := range info.LiveIn[b] {
			info.Spans[v] = true
		}
		for i := len(blk.Instrs) - 1; i >= 0; i-- {
			instr := blk.Instrs[i]
			if d := instr.DefValue(); d >= 0 {
				info.SpillWeight[d] += weight
				for v := range live {
					if v == d {
						continue
					}
					if instr.Op == ir.OpMove && len(instr.Uses) == 1 && instr.Uses[0] == v {
						continue // move source does not interfere
					}
					addEdge(info.Interference, d, v)
				}
				delete(live, d)
			}
			for _, u := range instr.Uses {
				info.SpillWeight[u] += weight
				live[u] = true
			}
			if instr.Op == ir.OpMove && instr.DefValue() >= 0 && len(instr.Uses) == 1 && instr.Uses[0] != instr.Def {
				info.MoveRelated[instr.Def][instr.Uses[0]] = true
				info.MoveRelated[instr.Uses[0]][instr.Def] = true
			}
		}
	}
	// params interfere with each other and anything live on entry
	entryLive := info.LiveIn[0]
	for _, p := range f.Params {
		for v := range entryLive {
			if v != p {
				addEdge(info.Interference, p, v)
			}
		}
		for _, q := range f.Params {
			if p != q {
				addEdge(info.Interference, p, q)
			}
		}
	}
	return info
}

func addEdge(adj []map[ir.Value]bool, a, b ir.Value) {
	adj[a][b] = true
	adj[b][a] = true
}

// Interferes reports whether values a and b interfere.
func (i *Info) Interferes(a, b ir.Value) bool { return i.Interference[a][b] }

// Degree returns the interference degree of v.
func (i *Info) Degree(v ir.Value) int { return len(i.Interference[v]) }
