// Package regalloc implements the four register allocators the paper's
// LLVM evaluation compares (Section V-C):
//
//   - FAST: the baseline local allocator — only block-local values get
//     registers, everything that spans a block boundary is spilled.
//   - BASIC: a linear-scan allocator (Poletto & Sarkar style).
//   - GREEDY: a priority allocator with eviction, the spirit of LLVM's
//     default GRA (linear scan with aggressive splitting; this model
//     substitutes weight-based eviction for splitting).
//   - PBQP: constructs the PBQP problem (spill option + interference +
//     register-class restrictions + coalescing hints) and defers to any
//     PBQP solver — the original Scholz–Eckstein reduction or the
//     Deep-RL solver (PBQP-RL).
package regalloc

import (
	"container/heap"
	"fmt"
	"sort"

	"pbqprl/internal/ir"
	"pbqprl/internal/liveness"
)

// Target describes the physical register file.
type Target struct {
	Name string
	// NumRegs is the number of allocatable registers. The experiments
	// use 12 so that the PBQP color count (registers + spill) is 13,
	// matching the ATE-trained network.
	NumRegs int
}

// DefaultTarget returns the 12-register reference target.
func DefaultTarget() *Target { return &Target{Name: "x86-ish", NumRegs: 12} }

// Input bundles what every allocator consumes.
type Input struct {
	F      *ir.Func
	Info   *liveness.Info
	Target *Target
	// Allowed restricts values to register subsets (register classes);
	// nil, or a nil entry, means any register.
	Allowed [][]int
}

// NewInput analyzes f and builds an allocator input.
func NewInput(f *ir.Func, target *Target, allowed [][]int) Input {
	return Input{F: f, Info: liveness.Analyze(f), Target: target, Allowed: allowed}
}

// allowedSet returns the permitted registers of value v as a bitmask
// slice of size NumRegs.
func (in Input) allowedSet(v ir.Value) []bool {
	ok := make([]bool, in.Target.NumRegs)
	if in.Allowed == nil || in.Allowed[v] == nil {
		for r := range ok {
			ok[r] = true
		}
		return ok
	}
	for _, r := range in.Allowed[v] {
		if r >= 0 && r < in.Target.NumRegs {
			ok[r] = true
		}
	}
	return ok
}

// Assignment maps each value to a physical register or -1 (spilled).
type Assignment struct {
	Reg []int
}

// SpillCount returns the number of spilled values.
func (a Assignment) SpillCount() int {
	n := 0
	for _, r := range a.Reg {
		if r == -1 {
			n++
		}
	}
	return n
}

// Validate checks that the assignment respects interference and class
// constraints.
func (a Assignment) Validate(in Input) error {
	if len(a.Reg) != in.F.NumValues {
		return fmt.Errorf("regalloc: assignment covers %d of %d values", len(a.Reg), in.F.NumValues)
	}
	for v, r := range a.Reg {
		if r == -1 {
			continue
		}
		if r < 0 || r >= in.Target.NumRegs {
			return fmt.Errorf("regalloc: v%d assigned out-of-range register %d", v, r)
		}
		if !in.allowedSet(ir.Value(v))[r] {
			return fmt.Errorf("regalloc: v%d assigned register %d outside its class", v, r)
		}
		for u := range in.Info.Interference[v] {
			if a.Reg[u] == r {
				return fmt.Errorf("regalloc: interfering values v%d and v%d share register %d", v, u, r)
			}
		}
	}
	return nil
}

// intervals computes linearized live intervals: instructions are
// numbered consecutively in block order, block boundaries included.
func intervals(in Input) (start, end []int) {
	n := in.F.NumValues
	start = make([]int, n)
	end = make([]int, n)
	for v := 0; v < n; v++ {
		start[v], end[v] = -1, -1
	}
	touch := func(v ir.Value, pos int) {
		if start[v] == -1 || pos < start[v] {
			start[v] = pos
		}
		if pos > end[v] {
			end[v] = pos
		}
	}
	pos := 0
	for b, blk := range in.F.Blocks {
		blockStart := pos
		for v := range in.Info.LiveIn[b] {
			touch(v, blockStart)
		}
		for _, instr := range blk.Instrs {
			if d := instr.DefValue(); d >= 0 {
				touch(d, pos)
			}
			for _, u := range instr.Uses {
				touch(u, pos)
			}
			pos++
		}
		for v := range in.Info.LiveOut[b] {
			touch(v, pos)
		}
		pos++ // block boundary
	}
	for _, p := range in.F.Params {
		touch(p, 0)
	}
	return start, end
}

// Fast is the baseline local allocator: values that span block
// boundaries are spilled; block-local values are assigned greedily
// within their block.
func Fast(in Input) Assignment {
	reg := make([]int, in.F.NumValues)
	for v := range reg {
		reg[v] = -1
	}
	for b, blk := range in.F.Blocks {
		_ = b
		// last use position of each block-local value
		lastUse := map[ir.Value]int{}
		for i, instr := range blk.Instrs {
			if d := instr.DefValue(); d >= 0 && !in.Info.Spans[d] {
				lastUse[d] = i
			}
			for _, u := range instr.Uses {
				if _, ok := lastUse[u]; ok && i > lastUse[u] {
					lastUse[u] = i
				}
			}
		}
		inUse := make([]ir.Value, in.Target.NumRegs)
		for r := range inUse {
			inUse[r] = -1
		}
		for i, instr := range blk.Instrs {
			// free registers whose value died before this instruction
			for r, v := range inUse {
				if v >= 0 && lastUse[v] < i {
					inUse[r] = -1
				}
			}
			if d := instr.DefValue(); d >= 0 && !in.Info.Spans[d] {
				ok := in.allowedSet(d)
				for r := 0; r < in.Target.NumRegs; r++ {
					if ok[r] && inUse[r] == -1 {
						reg[d] = r
						inUse[r] = d
						break
					}
				}
			}
		}
	}
	return Assignment{Reg: reg}
}

// Basic is a linear-scan allocator over linearized intervals.
func Basic(in Input) Assignment {
	start, end := intervals(in)
	n := in.F.NumValues
	order := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if start[v] != -1 {
			order = append(order, v)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if start[order[i]] != start[order[j]] {
			return start[order[i]] < start[order[j]]
		}
		return order[i] < order[j]
	})
	reg := make([]int, n)
	for v := range reg {
		reg[v] = -1
	}
	type active struct{ v, r int }
	var act []active
	for _, v := range order {
		// expire
		kept := act[:0]
		for _, a := range act {
			if end[a.v] >= start[v] {
				kept = append(kept, a)
			}
		}
		act = kept
		free := make([]bool, in.Target.NumRegs)
		for r := range free {
			free[r] = true
		}
		for _, a := range act {
			free[a.r] = false
		}
		ok := in.allowedSet(ir.Value(v))
		chosen := -1
		for r := 0; r < in.Target.NumRegs; r++ {
			if free[r] && ok[r] {
				chosen = r
				break
			}
		}
		if chosen == -1 {
			// spill the conflicting interval that ends last (classic
			// linear-scan heuristic), if it outlives the current one
			worst := -1
			for i, a := range act {
				if ok[a.r] && (worst == -1 || end[a.v] > end[act[worst].v]) {
					worst = i
				}
			}
			if worst >= 0 && end[act[worst].v] > end[v] {
				reg[v] = act[worst].r
				reg[act[worst].v] = -1
				act[worst] = active{v: v, r: reg[v]}
			}
			continue
		}
		reg[v] = chosen
		act = append(act, active{v: v, r: chosen})
	}
	return Assignment{Reg: reg}
}

// prioItem is a value in the greedy allocator's worklist.
type prioItem struct {
	v      ir.Value
	weight float64
}

type prioQueue []prioItem

func (q prioQueue) Len() int      { return len(q) }
func (q prioQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q prioQueue) Less(i, j int) bool {
	if q[i].weight != q[j].weight {
		return q[i].weight > q[j].weight
	}
	return q[i].v < q[j].v
}
func (q *prioQueue) Push(x any) { *q = append(*q, x.(prioItem)) }
func (q *prioQueue) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// Greedy is a priority allocator with weight-based eviction, modeling
// LLVM's GRA: heavier (hotter) values allocate first and may evict
// strictly lighter interfering values, which re-enter the queue and may
// end up spilled.
func Greedy(in Input) Assignment {
	n := in.F.NumValues
	reg := make([]int, n)
	for v := range reg {
		reg[v] = -1
	}
	q := &prioQueue{}
	for v := 0; v < n; v++ {
		heap.Push(q, prioItem{v: ir.Value(v), weight: in.Info.SpillWeight[v]})
	}
	evictions := make([]int, n)
	const maxEvictions = 4
	for q.Len() > 0 {
		it := heap.Pop(q).(prioItem)
		v := it.v
		ok := in.allowedSet(v)
		// direct assignment
		conflict := make([]float64, in.Target.NumRegs) // eviction cost per reg
		holders := make([][]ir.Value, in.Target.NumRegs)
		assigned := false
		for r := 0; r < in.Target.NumRegs && !assigned; r++ {
			if !ok[r] {
				conflict[r] = -1
				continue
			}
			freeHere := true
			for u := range in.Info.Interference[v] {
				if reg[u] == r {
					freeHere = false
					conflict[r] += in.Info.SpillWeight[u]
					holders[r] = append(holders[r], u)
				}
			}
			if freeHere {
				reg[v] = r
				assigned = true
			}
		}
		if assigned {
			continue
		}
		// eviction: find the register whose holders are strictly
		// lighter in total than v
		bestR, bestCost := -1, 0.0
		for r := 0; r < in.Target.NumRegs; r++ {
			if conflict[r] < 0 {
				continue
			}
			if conflict[r] < it.weight && (bestR == -1 || conflict[r] < bestCost) {
				bestR, bestCost = r, conflict[r]
			}
		}
		if bestR >= 0 && evictions[v] < maxEvictions {
			for _, u := range holders[bestR] {
				reg[u] = -1
				evictions[u]++
				heap.Push(q, prioItem{v: u, weight: in.Info.SpillWeight[u]})
			}
			reg[v] = bestR
			continue
		}
		// spilled: reg[v] stays -1
	}
	return Assignment{Reg: reg}
}
