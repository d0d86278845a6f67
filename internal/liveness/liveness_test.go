package liveness

import (
	"testing"

	"pbqprl/internal/ir"
)

// straightLine: v0 and v1 overlap; v2 starts after v1 dies.
func straightLine() *ir.Func {
	return &ir.Func{
		Name: "sl", NumValues: 4,
		Blocks: []*ir.Block{{Name: "entry", Instrs: []ir.Instr{
			{Op: ir.OpConst, Def: 0},
			{Op: ir.OpConst, Def: 1},
			{Op: ir.OpArith, Def: 2, Uses: []ir.Value{0, 1}}, // v0, v1 die here
			{Op: ir.OpArith, Def: 3, Uses: []ir.Value{2}},
			{Op: ir.OpRet, Uses: []ir.Value{3}},
		}}},
	}
}

func TestStraightLineInterference(t *testing.T) {
	info := Analyze(straightLine())
	if !info.Interference[0][1] {
		t.Error("v0 and v1 overlap but do not interfere")
	}
	if info.Interference[0][3] {
		t.Error("v0 and v3 never overlap")
	}
	if info.Interference[1][2] {
		t.Error("v1 dies where v2 is defined; no interference")
	}
}

func TestLoopLiveness(t *testing.T) {
	// v1 defined before the loop, used inside the loop body: it must be
	// live-in and live-out of the header and body.
	f := &ir.Func{
		Name: "loop", NumValues: 4, Params: []ir.Value{0},
		Blocks: []*ir.Block{
			{Name: "entry", Succs: []int{1}, Instrs: []ir.Instr{
				{Op: ir.OpConst, Def: 1},
			}},
			{Name: "header", Succs: []int{2, 3}, LoopDepth: 1, Instrs: []ir.Instr{
				{Op: ir.OpCmp, Def: 2, Uses: []ir.Value{0, 1}},
				{Op: ir.OpBranch, Uses: []ir.Value{2}},
			}},
			{Name: "body", Succs: []int{1}, LoopDepth: 1, Instrs: []ir.Instr{
				{Op: ir.OpStore, Uses: []ir.Value{1, 0}},
			}},
			{Name: "exit", Instrs: []ir.Instr{
				{Op: ir.OpRet, Uses: []ir.Value{1}},
			}},
		},
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	info := Analyze(f)
	if !info.LiveIn[1][1] || !info.LiveOut[2][1] {
		t.Error("v1 not live through the loop")
	}
	if !info.Spans[1] {
		t.Error("v1 spans blocks but Spans is false")
	}
	// spill weight: v1 used in header(d1), body(d1), exit(d0), defined in
	// entry(d0): 10 + 10 + 1 + 1 = 22
	if w := info.SpillWeight[1]; w != 22 {
		t.Errorf("spill weight of v1 = %v, want 22", w)
	}
}

func TestMoveDoesNotInterfere(t *testing.T) {
	f := &ir.Func{
		Name: "mv", NumValues: 3,
		Blocks: []*ir.Block{{Name: "entry", Instrs: []ir.Instr{
			{Op: ir.OpConst, Def: 0},
			{Op: ir.OpMove, Def: 1, Uses: []ir.Value{0}},
			{Op: ir.OpStore, Uses: []ir.Value{1, 1}},
			{Op: ir.OpRet},
		}}},
	}
	info := Analyze(f)
	if info.Interference[0][1] {
		t.Error("move source and destination interfere")
	}
	if !info.MoveRelated[0][1] || !info.MoveRelated[1][0] {
		t.Error("move relation not recorded")
	}
}

func TestMoveSourceLiveAfterDoesInterfere(t *testing.T) {
	f := &ir.Func{
		Name: "mv2", NumValues: 3,
		Blocks: []*ir.Block{{Name: "entry", Instrs: []ir.Instr{
			{Op: ir.OpConst, Def: 0},
			{Op: ir.OpMove, Def: 1, Uses: []ir.Value{0}},
			{Op: ir.OpArith, Def: 2, Uses: []ir.Value{0, 1}}, // v0 still live
			{Op: ir.OpRet, Uses: []ir.Value{2}},
		}}},
	}
	info := Analyze(f)
	// v0 stays live past the move, but a move source and destination
	// hold the same data (single-def values), so the classic move
	// exception still applies: no interference, and the pair remains a
	// coalescing candidate.
	if info.Interference[0][1] {
		t.Error("move pair must not interfere (same data)")
	}
	if !info.MoveRelated[0][1] {
		t.Error("move relation missing")
	}
	// operands dying at the arith do not interfere with its result
	if info.Interference[0][2] || info.Interference[1][2] {
		t.Error("dying operands must not interfere with the defined value")
	}
}

func TestParamsInterfere(t *testing.T) {
	f := &ir.Func{
		Name: "params", NumValues: 3, Params: []ir.Value{0, 1},
		Blocks: []*ir.Block{{Name: "entry", Instrs: []ir.Instr{
			{Op: ir.OpArith, Def: 2, Uses: []ir.Value{0, 1}},
			{Op: ir.OpRet, Uses: []ir.Value{2}},
		}}},
	}
	info := Analyze(f)
	if !info.Interference[0][1] {
		t.Error("parameters must interfere")
	}
}

func TestDegree(t *testing.T) {
	info := Analyze(straightLine())
	if d := len(info.Interference[0]); d != 1 {
		t.Errorf("degree(v0) = %d, want 1", d)
	}
}
