package ate

import (
	"bytes"
	"testing"

	"pbqprl/internal/cost"
	"pbqprl/internal/pbqp"
)

// buildReference builds p's graph the direct way, the oracle
// TestBuildPBQPMatchesAddEdgeCost holds BuildPBQP to: one AddEdgeCost
// per constraint, in the order the constraints are found, each summing
// a fresh copy into its edge.
func buildReference(t *testing.T, p *Program) *pbqp.Graph {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	m := p.Machine.Registers
	g := pbqp.New(p.NumVRegs, m)
	for v := 0; v < p.NumVRegs; v++ {
		vec := cost.NewVector(m)
		if len(p.Allowed) > 0 && p.Allowed[v] != nil {
			vec = cost.NewInfVector(m)
			for _, r := range p.Allowed[v] {
				vec[r] = 0
			}
		}
		g.SetVertexCost(v, vec)
	}
	diag := cost.NewMatrix(m, m)
	for i := 0; i < m; i++ {
		diag.Set(i, i, cost.Inf)
	}
	addDiff := func(u, v int) {
		if u != v {
			g.AddEdgeCost(u, v, diag)
		}
	}
	start, end := p.LiveRanges()
	for u := 0; u < p.NumVRegs; u++ {
		for v := u + 1; v < p.NumVRegs; v++ {
			if start[u] <= end[v] && start[v] <= end[u] {
				addDiff(u, v)
			}
		}
	}
	ways := p.Machine.Ways
	for c := 0; c*ways < len(p.Instrs); c++ {
		lo, hi := c*ways, min((c+1)*ways, len(p.Instrs))
		var defs []int
		type read struct{ vreg, slot int }
		var reads []read
		for i := lo; i < hi; i++ {
			in := p.Instrs[i]
			for _, u := range in.Uses {
				reads = append(reads, read{u, i})
			}
			if def := in.DefReg(); def >= 0 {
				for _, d := range defs {
					addDiff(d, def)
				}
				for _, r := range reads {
					if r.slot < i {
						addDiff(r.vreg, def)
					}
				}
				defs = append(defs, def)
			}
		}
	}
	pair := cost.NewMatrix(m, m)
	for a := 0; a < m; a++ {
		for b := 0; b < m; b++ {
			if !p.Machine.Pairable(a, b) {
				pair.Set(a, b, cost.Inf)
			}
		}
	}
	for _, in := range p.Instrs {
		if in.Op == OpAdd && in.Uses[0] != in.Uses[1] {
			g.AddEdgeCost(in.Uses[0], in.Uses[1], pair)
		}
	}
	return g
}

// sameGraph fails unless got has want's vertices, vectors, edges and
// both orientations of every edge matrix bit for bit, and writes the
// same text.
func sameGraph(t *testing.T, name string, want, got *pbqp.Graph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.M() != want.M() {
		t.Fatalf("%s: %d vertices of %d colors, want %d of %d", name,
			got.NumVertices(), got.M(), want.NumVertices(), want.M())
	}
	for u := 0; u < want.NumVertices(); u++ {
		if !cost.SameBits(got.VertexCost(u), want.VertexCost(u)) {
			t.Fatalf("%s: vertex %d costs %v, want %v", name, u, got.VertexCost(u), want.VertexCost(u))
		}
	}
	we, ge := want.Edges(), got.Edges()
	if len(ge) != len(we) {
		t.Fatalf("%s: %d edges, want %d", name, len(ge), len(we))
	}
	for i, e := range we {
		if ge[i].U != e.U || ge[i].V != e.V {
			t.Fatalf("%s: edge %d is (%d,%d), want (%d,%d)", name, i, ge[i].U, ge[i].V, e.U, e.V)
		}
		for _, uv := range [][2]int{{e.U, e.V}, {e.V, e.U}} {
			if !cost.SameBits(got.EdgeCost(uv[0], uv[1]).Data, want.EdgeCost(uv[0], uv[1]).Data) {
				t.Fatalf("%s: edge (%d,%d) has other bits than the reference", name, uv[0], uv[1])
			}
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

// TestBuildPBQPMatchesAddEdgeCost holds the table builder to the
// reference over the suite and generated programs, which between them
// pair sources in both orders and put a pairing on edges that also
// carry an interference diagonal. Half the generated programs target a
// machine whose pairing table is not symmetric (a pair pairs only with
// its lower register first), where the pairing matrix and its
// transpose differ, so each orientation is checked on its own.
func TestBuildPBQPMatchesAddEdgeCost(t *testing.T) {
	asym := DefaultMachine()
	for a := range asym.pairable {
		asym.pairable[a] = append([]bool(nil), asym.pairable[a]...)
		for b := 0; b < a; b++ {
			asym.pairable[a][b] = false
		}
	}
	progs := make([]*Program, 0, 40)
	for _, b := range Suite() {
		progs = append(progs, b.Program)
	}
	for seed := int64(0); seed < 24; seed++ {
		mach := DefaultMachine()
		if seed%2 == 1 {
			mach = asym
		}
		p, _ := Generate(mach, GenConfig{
			Name: "t", NumVRegs: 20 + 10*int(seed%6), PairRatio: 0.1 + 0.05*float64(seed%8),
			HardRatio: 0.4, MaxLive: 4 + int(seed%9), Seed: seed,
		})
		progs = append(progs, p)
	}
	var forward, backward, both int
	for _, p := range progs {
		want := buildReference(t, p)
		got, err := BuildPBQP(p)
		if err != nil {
			t.Fatal(err)
		}
		sameGraph(t, p.Name, want, got)
		for _, in := range p.Instrs {
			if in.Op != OpAdd || in.Uses[0] == in.Uses[1] {
				continue
			}
			if in.Uses[0] < in.Uses[1] {
				forward++
			} else {
				backward++
			}
			if mat := want.EdgeCost(in.Uses[0], in.Uses[1]); mat.At(0, 0).IsInf() && mat.At(1, 1).IsInf() && mat.At(2, 2).IsInf() {
				both++
			}
		}
	}
	if forward == 0 || backward == 0 || both == 0 {
		t.Fatalf("coverage: %d pairings with the lower source first, %d with the higher, %d on an interference edge; want each > 0",
			forward, backward, both)
	}
}

// ate250 is the 250-vreg program the pin and the allocation bound build.
func ate250() *Program {
	p, _ := Generate(DefaultMachine(), GenConfig{
		Name: "ate250", NumVRegs: 250, PairRatio: 0.3, HardRatio: 0.4, Seed: 1,
	})
	return p
}

// TestBuildPBQPSharesMatrices pins the table: every edge of a 250-vreg
// ATE graph carries one of at most 8 matrices, shared by pointer.
func TestBuildPBQPSharesMatrices(t *testing.T) {
	g, err := BuildPBQP(ate250())
	if err != nil {
		t.Fatal(err)
	}
	distinct := make(map[*cost.Matrix]bool)
	for _, e := range g.Edges() {
		distinct[e.M] = true
		distinct[g.EdgeCost(e.V, e.U)] = true
	}
	if len(distinct) > 8 || g.NumEdges() < 1000 {
		t.Fatalf("%d edges carry %d distinct matrices, want at most 8 over 1000 or more edges",
			g.NumEdges(), len(distinct))
	}
}

// TestBuildPBQPAllocations bounds the 250-vreg build's allocations well
// below one copy per edge: with its ~1 500 edges, a builder that copied
// a matrix and its transpose for each would pass 6 000.
func TestBuildPBQPAllocations(t *testing.T) {
	p := ate250()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := BuildPBQP(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3000 {
		t.Fatalf("BuildPBQP of 250 vregs: %.0f allocations, want at most 3000", allocs)
	}
}
