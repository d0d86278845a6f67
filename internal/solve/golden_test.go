package solve_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"pbqprl/internal/ate"
	"pbqprl/internal/decomp"
	"pbqprl/internal/llvmsuite"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/randgraph"
	"pbqprl/internal/regalloc"
	"pbqprl/internal/solve"
	"pbqprl/internal/solve/liberty"
	"pbqprl/internal/solve/scholz"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/scholz_golden.txt and testdata/liberty_golden.txt from the current tree")

// goldenGraphs is the pinned input set: the FuzzSolverAgreement seeds
// (inline and checked-in corpus), the PRO1–PRO6 ATE programs, and the
// three shapes the biggraph benchmark solves, at a size a test affords.
func goldenGraphs(t *testing.T) []namedGraph {
	var out []namedGraph
	add := func(name string, g *pbqp.Graph) {
		if g != nil {
			out = append(out, namedGraph{name, g})
		}
	}
	for i, seed := range [][]byte{
		{2, 1, 0, 1, 2, 3, 1, 0, 5},
		{4, 2, 3, 3, 3, 1, 0, 2},
		{1, 0, 6},
		{3, 1, 7, 7, 7, 7, 7, 7, 1, 1, 1, 1, 1},
	} {
		add(fmt.Sprintf("fuzz/add%d", i), graphFromBytes(seed))
	}
	files, err := filepath.Glob("testdata/fuzz/FuzzSolverAgreement/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no fuzz corpus under testdata (err %v)", err)
	}
	sort.Strings(files)
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		lit := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
		data, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		add("fuzz/"+filepath.Base(file), graphFromBytes([]byte(data)))
	}
	for _, b := range ate.Suite()[:6] {
		add(b.Program.Name, b.Graph)
	}
	rng := rand.New(rand.NewSource(1))
	const n = 600
	add("blocky", randgraph.LargeSparse(rng, randgraph.LargeSparseConfig{
		N: n, M: 4, Components: 8, ClusterSize: 12, Chords: 4}))
	add("reducible", randgraph.ErdosRenyi(rng, randgraph.Config{
		N: n, M: 4, PEdge: 2.2 / float64(n), PInf: 0.01}))
	add("module", moduleGraph())
	return out
}

type namedGraph struct {
	name string
	g    *pbqp.Graph
}

// moduleGraph is the disjoint union of the llvmsuite function graphs,
// the benchmark's third biggraph case.
func moduleGraph() *pbqp.Graph {
	target := regalloc.DefaultTarget()
	var parts []*pbqp.Graph
	total := 0
	for _, b := range llvmsuite.All() {
		for i, f := range b.Prog.Funcs {
			g := regalloc.BuildPBQP(regalloc.NewInput(f, target, b.Allowed[i]))
			parts = append(parts, g)
			total += g.NumVertices()
		}
	}
	mod := pbqp.New(total, target.NumRegs+1)
	offset := 0
	for _, part := range parts {
		for u := 0; u < part.NumVertices(); u++ {
			mod.SetVertexCost(offset+u, part.VertexCost(u))
		}
		for _, e := range part.Edges() {
			mod.SetEdgeCost(offset+e.U, offset+e.V, e.M)
		}
		offset += part.NumVertices()
	}
	return mod
}

func goldenLine(name, solver string, res solve.Result) string {
	costBits := "inf"
	if !res.Cost.IsInf() {
		costBits = fmt.Sprintf("%016x", math.Float64bits(float64(res.Cost)))
	}
	h := sha256.New()
	for _, c := range res.Selection {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(int32(c)))
		h.Write(b[:])
	}
	return fmt.Sprintf("%s %s states=%d feasible=%v truncated=%v cost=%s sel=%d:%x\n",
		name, solver, res.States, res.Feasible, res.Truncated, costBits, len(res.Selection), h.Sum(nil)[:8])
}

// TestScholzGolden pins plain scholz, its deadline-degraded pure-RN
// path and decomp(scholz) bit for bit — States, Feasible, Cost and the
// whole Selection — against values recorded before scholz moved onto
// reduce's worklist and graphs started sharing their edge matrices.
func TestScholzGolden(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	var got bytes.Buffer
	for _, c := range goldenGraphs(t) {
		got.WriteString(goldenLine(c.name, "scholz", scholz.Solver{}.Solve(c.g)))
		got.WriteString(goldenLine(c.name, "scholz-rn", scholz.Solver{}.SolveCtx(cancelled, c.g)))
		got.WriteString(goldenLine(c.name, "decomp(scholz)", decomp.Wrap(scholz.Solver{}).Solve(c.g)))
	}
	checkGolden(t, "testdata/scholz_golden.txt", got.String())
}

// TestLibertyGolden pins liberty and decomp(liberty) at a budget of
// 200 000 states the same way, against values recorded before liberty
// enumerated on game.State. The budget truncates PRO5 and decomp(PRO2).
func TestLibertyGolden(t *testing.T) {
	solver := liberty.Solver{MaxStates: 200_000}
	var got bytes.Buffer
	for _, c := range goldenGraphs(t) {
		got.WriteString(goldenLine(c.name, "liberty", solver.Solve(c.g)))
		got.WriteString(goldenLine(c.name, "decomp(liberty)", decomp.Wrap(solver).Solve(c.g)))
	}
	checkGolden(t, "testdata/liberty_golden.txt", got.String())
}

// checkGolden compares got with the golden file at path line by line,
// or rewrites the file under -update-golden.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d result lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("got  %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
}
