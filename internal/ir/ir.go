// Package ir defines the small compiler intermediate representation the
// LLVM-style evaluation is built on: functions of basic blocks over
// virtual registers, with explicit control-flow successors and loop
// depths. It is deliberately minimal — just enough structure for
// liveness analysis, interference construction, spill-cost weighting and
// the four register allocators of internal/regalloc.
package ir

import (
	"fmt"
	"maps"
	"strings"
)

// Value is a virtual register id, dense in [0, Func.NumValues).
type Value int

// Opcode is an instruction kind.
type Opcode int

const (
	// OpConst defines a value from an immediate.
	OpConst Opcode = iota
	// OpArith defines a value from one or two operands.
	OpArith
	// OpLoad defines a value from memory through an address operand.
	OpLoad
	// OpStore writes an operand to memory through an address operand.
	OpStore
	// OpMove copies Uses[0] into Def (coalescing candidate).
	OpMove
	// OpCmp defines a flag-like value from two operands.
	OpCmp
	// OpBranch ends a block; with one use it is conditional.
	OpBranch
	// OpCall defines a value from arguments (clobbers nothing in this
	// model; calling conventions are out of scope).
	OpCall
	// OpRet ends the function, optionally using a value.
	OpRet
)

// String names the opcode.
func (o Opcode) String() string {
	switch o {
	case OpConst:
		return "const"
	case OpArith:
		return "arith"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpMove:
		return "mov"
	case OpCmp:
		return "cmp"
	case OpBranch:
		return "br"
	case OpCall:
		return "call"
	case OpRet:
		return "ret"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Instr is one instruction. The Def field is only meaningful for
// defining opcodes — use DefValue, which returns -1 for store, branch
// and return instructions regardless of the field.
type Instr struct {
	Op   Opcode
	Def  Value
	Uses []Value
}

// DefValue returns the value this instruction defines, or -1.
func (in Instr) DefValue() Value {
	switch in.Op {
	case OpConst, OpArith, OpLoad, OpMove, OpCmp, OpCall:
		return in.Def
	default:
		return -1
	}
}

// Block is a basic block.
type Block struct {
	Name string
	// Instrs execute in order; control transfers at the end.
	Instrs []Instr
	// Succs are indices into Func.Blocks.
	Succs []int
	// LoopDepth is the natural-loop nesting depth (0 = not in a loop);
	// spill costs scale by 10^LoopDepth, as LLVM's do.
	LoopDepth int
}

// Func is a function: Blocks[0] is the entry.
type Func struct {
	Name      string
	Blocks    []*Block
	NumValues int
	// Params are defined on entry to Blocks[0].
	Params []Value
}

// String renders a readable listing.
func (f *Func) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s(%d params, %d values)\n", f.Name, len(f.Params), f.NumValues)
	for i, blk := range f.Blocks {
		fmt.Fprintf(&b, "%s: ; depth=%d succs=%v\n", blk.Name, blk.LoopDepth, blk.Succs)
		for _, in := range blk.Instrs {
			b.WriteString("\t")
			b.WriteString(in.Op.String())
			if in.DefValue() >= 0 {
				fmt.Fprintf(&b, " v%d =", in.DefValue())
			}
			for _, u := range in.Uses {
				fmt.Fprintf(&b, " v%d", u)
			}
			b.WriteByte('\n')
		}
		_ = i
	}
	return b.String()
}

// Validate checks structural invariants: successor indices in range,
// value ids in range, a non-empty entry block, and (conservatively)
// def-before-use along every path — verified via a simple forward
// "definitely defined" dataflow.
func (f *Func) Validate() error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("ir: %s has no blocks", f.Name)
	}
	for bi, blk := range f.Blocks {
		for _, s := range blk.Succs {
			if s < 0 || s >= len(f.Blocks) {
				return fmt.Errorf("ir: %s block %d has bad successor %d", f.Name, bi, s)
			}
		}
		for ii, in := range blk.Instrs {
			if in.DefValue() >= Value(f.NumValues) {
				return fmt.Errorf("ir: %s block %d instr %d defines out-of-range v%d", f.Name, bi, ii, in.DefValue())
			}
			for _, u := range in.Uses {
				if u < 0 || u >= Value(f.NumValues) {
					return fmt.Errorf("ir: %s block %d instr %d uses out-of-range v%d", f.Name, bi, ii, u)
				}
			}
		}
	}
	// Forward must-define analysis: block-out sets start at ⊤ (nil,
	// optimistic — required for loop back edges) and shrink to the
	// greatest fixpoint; uses are checked only after convergence.
	defined := make([]map[Value]bool, len(f.Blocks))
	entry := make(map[Value]bool)
	for _, p := range f.Params {
		entry[p] = true
	}
	preds := make([][]int, len(f.Blocks))
	for bi, blk := range f.Blocks {
		for _, s := range blk.Succs {
			preds[s] = append(preds[s], bi)
		}
	}
	inSet := func(bi int) map[Value]bool {
		in := make(map[Value]bool)
		if bi == 0 {
			for v := range entry {
				in[v] = true
			}
			return in
		}
		first := true
		for _, p := range preds[bi] {
			if defined[p] == nil {
				continue // ⊤ contributes nothing to the intersection
			}
			if first {
				for v := range defined[p] {
					in[v] = true
				}
				first = false
			} else {
				for v := range in {
					if !defined[p][v] {
						delete(in, v)
					}
				}
			}
		}
		if first {
			return nil // every predecessor still ⊤
		}
		return in
	}
	changed := true
	for iter := 0; changed; iter++ {
		if iter > 4*len(f.Blocks)+8 {
			return fmt.Errorf("ir: %s definedness analysis did not converge", f.Name)
		}
		changed = false
		for bi, blk := range f.Blocks {
			in := inSet(bi)
			if in == nil && bi != 0 {
				continue // still ⊤
			}
			for _, instr := range blk.Instrs {
				if d := instr.DefValue(); d >= 0 {
					in[d] = true
				}
			}
			if defined[bi] == nil || !maps.Equal(defined[bi], in) {
				defined[bi] = in
				changed = true
			}
		}
	}
	for bi, blk := range f.Blocks {
		if bi != 0 && defined[bi] == nil {
			continue // unreachable
		}
		in := inSet(bi)
		if in == nil {
			in = make(map[Value]bool)
		}
		for ii, instr := range blk.Instrs {
			for _, u := range instr.Uses {
				if !in[u] {
					return fmt.Errorf("ir: %s block %d instr %d uses v%d before any definite definition", f.Name, bi, ii, u)
				}
			}
			if d := instr.DefValue(); d >= 0 {
				in[d] = true
			}
		}
	}
	return nil
}

// Program is a named collection of functions — one benchmark of the
// synthetic llvm-test-suite stand-in.
type Program struct {
	Name  string
	Funcs []*Func
}

// Validate validates every function.
func (p *Program) Validate() error {
	for _, f := range p.Funcs {
		if err := f.Validate(); err != nil {
			return err
		}
	}
	return nil
}
