package regalloc

import (
	"bytes"
	"testing"

	"pbqprl/internal/cost"
	"pbqprl/internal/ir"
	"pbqprl/internal/llvmsuite"
	"pbqprl/internal/pbqp"
)

// buildReference builds in's graph the direct way, the oracle
// TestBuildPBQPMatchesAddEdgeCost holds BuildPBQP to: one AddEdgeCost
// per interference edge and per hint, each installing a fresh copy.
func buildReference(in Input) *pbqp.Graph {
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
			a, b := min(v, int(u)), max(v, int(u))
			if !seen[[2]int{a, b}] {
				seen[[2]int{a, b}] = true
				g.AddEdgeCost(a, b, interfere)
			}
		}
	}
	for v := 0; v < in.F.NumValues; v++ {
		for u := range in.Info.MoveRelated[v] {
			if int(u) <= v || in.Info.Interference[v][u] {
				continue
			}
			w := min(in.Info.SpillWeight[v], in.Info.SpillWeight[u])
			hint := cost.NewMatrix(m, m)
			for r := 1; r < m; r++ {
				hint.Set(r, r, cost.Cost(-0.25*(1+w)))
			}
			g.AddEdgeCost(v, int(u), hint)
		}
	}
	return g
}

// TestBuildPBQPMatchesAddEdgeCost holds BuildPBQP to the reference over
// every function of the suite: the same vectors, the same edges, both
// orientations of every matrix bit for bit, and the same written text.
// The suite hints hundreds of move pairs but has none that also
// interferes, so a hand-built function adds one: v1 is defined while v0
// is live, then becomes a move of v0.
func TestBuildPBQPMatchesAddEdgeCost(t *testing.T) {
	target := DefaultTarget()
	var ins []Input
	for _, b := range llvmsuite.All() {
		for i, f := range b.Prog.Funcs {
			ins = append(ins, NewInput(f, target, b.Allowed[i]))
		}
	}
	ins = append(ins, NewInput(&ir.Func{
		Name: "move-interferes", NumValues: 2,
		Blocks: []*ir.Block{{Name: "entry", Instrs: []ir.Instr{
			{Op: ir.OpConst, Def: 0},
			{Op: ir.OpConst, Def: 1},
			{Op: ir.OpMove, Def: 1, Uses: []ir.Value{0}},
			{Op: ir.OpStore, Uses: []ir.Value{0, 1}},
			{Op: ir.OpRet},
		}}},
	}, target, nil))
	hints, interfering := 0, 0
	for _, in := range ins {
		name := in.F.Name
		want, got := buildReference(in), BuildPBQP(in)
		for v := 0; v < in.F.NumValues; v++ {
			if !cost.SameBits(got.VertexCost(v), want.VertexCost(v)) {
				t.Fatalf("%s: v%d costs %v, want %v", name, v, got.VertexCost(v), want.VertexCost(v))
			}
			for u := range in.Info.MoveRelated[v] {
				switch {
				case int(u) <= v:
				case in.Info.Interference[v][u]:
					interfering++
				default:
					hints++
				}
			}
		}
		we, ge := want.Edges(), got.Edges()
		if len(ge) != len(we) {
			t.Fatalf("%s: %d edges, want %d", name, len(ge), len(we))
		}
		for k, e := range we {
			if ge[k].U != e.U || ge[k].V != e.V {
				t.Fatalf("%s: edge %d is (%d,%d), want (%d,%d)", name, k, ge[k].U, ge[k].V, e.U, e.V)
			}
			if !cost.SameBits(got.EdgeCost(e.U, e.V).Data, e.M.Data) ||
				!cost.SameBits(got.EdgeCost(e.V, e.U).Data, want.EdgeCost(e.V, e.U).Data) {
				t.Fatalf("%s: edge (%d,%d) has other bits than the reference", name, e.U, e.V)
			}
		}
		var wt, gt bytes.Buffer
		if err := pbqp.Write(&wt, want); err != nil {
			t.Fatal(err)
		}
		if err := pbqp.Write(&gt, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gt.Bytes(), wt.Bytes()) {
			t.Fatalf("%s: written text differs from the reference's", name)
		}
	}
	if hints < 100 || interfering == 0 {
		t.Fatalf("%d hinted move pairs and %d interfering ones, want 100 or more and at least one", hints, interfering)
	}
}

// TestWordHashSeparatesSuiteMatrices: over both orientations of every
// edge matrix BuildPBQP makes for the suite, no two distinct contents
// share a cost.WordHash, so game.New's interner and pbqp.Read's matrix
// memo meet every later copy of a content under its first. A hash that
// multiplies each word without rotating it puts 3 of the 65 contents
// under another's hash: they differ only in high bits.
func TestWordHashSeparatesSuiteMatrices(t *testing.T) {
	target := DefaultTarget()
	byHash := map[uint64]cost.Vector{}
	contents := 0
	for _, b := range llvmsuite.All() {
		for i, f := range b.Prog.Funcs {
			g := BuildPBQP(NewInput(f, target, b.Allowed[i]))
			for _, e := range g.Edges() {
				for _, m := range []*cost.Matrix{e.M, g.EdgeCost(e.V, e.U)} {
					sum := cost.WordHash(m.Data)
					seen, taken := byHash[sum]
					switch {
					case !taken:
						byHash[sum] = m.Data
						contents++
					case len(seen) != len(m.Data) || !cost.SameBits(seen, m.Data):
						t.Fatalf("%s: two distinct matrices share WordHash %#x", f.Name, sum)
					}
				}
			}
		}
	}
	t.Logf("%d distinct matrix contents", contents)
}
