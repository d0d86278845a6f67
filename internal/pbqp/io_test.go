package pbqp

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"pbqprl/internal/cost"
)

// TestReadRejectsHostileInput exercises the parser hardening: every
// case must produce a descriptive error, never a panic, a silent
// misparse, or a giant allocation.
func TestReadRejectsHostileInput(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"empty", "", "missing header"},
		{"comment only", "# nothing\n", "missing header"},
		{"negative n", "pbqp -1 2\n", "bad dimensions"},
		{"zero m", "pbqp 3 0\n", "bad dimensions"},
		{"negative m", "pbqp 3 -2\n", "bad dimensions"},
		{"absurd n", "pbqp 2000000000 2\n", "exceeds the limit"},
		{"absurd m", "pbqp 2 99999\n", "exceeds the limit"},
		{"absurd product", "pbqp 4000000 4000\n", "cost-entry limit"},
		{"duplicate header", "pbqp 1 1\npbqp 1 1\n", "duplicate header"},
		{"vertex before header", "v 0 1\n", "vertex before header"},
		{"edge before header", "e 0 1 0\n", "edge before header"},
		{"bad vertex id", "pbqp 2 2\nv 7 0 0\n", "bad vertex id"},
		{"duplicate vertex", "pbqp 2 2\nv 0 1 2\nv 0 3 4\n", "duplicate vertex"},
		{"truncated vertex line", "pbqp 2 2\nv 0 1\n", "wants 2 costs"},
		{"truncated edge line", "pbqp 2 2\ne 0 1 1 2 3\n", "wants 4 costs"},
		{"self loop", "pbqp 2 2\ne 1 1 0 0 0 0\n", "bad edge endpoints"},
		{"edge out of range", "pbqp 2 2\ne 0 5 0 0 0 0\n", "bad edge endpoints"},
		{"duplicate edge", "pbqp 2 2\ne 0 1 0 0 0 0\ne 0 1 1 1 1 1\n", "duplicate edge"},
		{"duplicate edge reversed", "pbqp 2 2\ne 0 1 0 0 0 0\ne 1 0 1 1 1 1\n", "duplicate edge"},
		{"NaN cost", "pbqp 1 2\nv 0 NaN 0\n", "not a valid PBQP cost"},
		{"negative infinity", "pbqp 1 2\nv 0 -inf 0\n", "not a valid PBQP cost"},
		{"reserved range positive", "pbqp 1 2\nv 0 1e308 0\n", "reserved infinite range"},
		{"reserved range negative", "pbqp 1 2\nv 0 -1e308 0\n", "reserved infinite range"},
		{"reserved range edge", "pbqp 2 1\ne 0 1 8e307\n", "reserved infinite range"},
		{"unknown directive", "pbqp 1 1\nq 0\n", "unknown directive"},
		{"garbage cost", "pbqp 1 1\nv 0 zebra\n", "parse"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := Read(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("Read(%q) accepted, graph %v", tc.in, g)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Read(%q) error %q, want it to mention %q", tc.in, err, tc.wantErr)
			}
		})
	}
}

// TestReadWithLimits pins the per-call cap behaviour: tightened limits
// reject graphs the defaults accept, unset fields fall back to the
// defaults, and nothing can loosen past the package ceiling.
func TestReadWithLimits(t *testing.T) {
	in := "pbqp 10 4\n"
	if _, err := Read(strings.NewReader(in)); err != nil {
		t.Fatalf("defaults reject a 10×4 graph: %v", err)
	}
	cases := []struct {
		name    string
		in      string // "" reads in
		limits  ReadLimits
		wantErr string
	}{
		{"tight vertices", "", ReadLimits{MaxVertices: 4}, "vertex count 10 exceeds the limit 4"},
		{"tight colors", "", ReadLimits{MaxColors: 3}, "color count 4 exceeds the limit 3"},
		// within both per-dimension caps, n·m past the fixed cost-entry cap
		{"tight product", "pbqp 20000 4096\n", ReadLimits{}, "cost-entry limit"},
		{"exact fit", "", ReadLimits{MaxVertices: 10, MaxColors: 4}, ""},
		{"zero fields use defaults", "", ReadLimits{}, ""},
		{"negative fields use defaults", "", ReadLimits{MaxVertices: -1, MaxColors: -1}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := tc.in
			if body == "" {
				body = in
			}
			_, err := ReadWithLimits(strings.NewReader(body), tc.limits)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("ReadWithLimits(%+v) rejected: %v", tc.limits, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("ReadWithLimits(%+v) error %v, want it to mention %q", tc.limits, err, tc.wantErr)
			}
		})
	}

	// Oversized limits clamp to the package ceiling rather than loosen it.
	huge := ReadLimits{MaxVertices: 1 << 40, MaxColors: 1 << 40}
	if _, err := ReadWithLimits(strings.NewReader("pbqp 2000000000 2\n"), huge); err == nil ||
		!strings.Contains(err.Error(), "exceeds the limit") {
		t.Fatalf("oversized limits loosened the package ceiling: err=%v", err)
	}
}

// TestReadAcceptsExplicitInfinitySpellings pins that the reserved-range
// rejection does not catch intentional infinities.
func TestReadAcceptsExplicitInfinitySpellings(t *testing.T) {
	for _, spelling := range []string{"inf", "INF", "Inf", "+inf", "infinity"} {
		g, err := Read(strings.NewReader("pbqp 1 2\nv 0 " + spelling + " 3\n"))
		if err != nil {
			t.Fatalf("spelling %q rejected: %v", spelling, err)
		}
		if !g.VertexCost(0)[0].IsInf() || g.VertexCost(0)[1] != 3 {
			t.Fatalf("spelling %q parsed as %v", spelling, g.VertexCost(0))
		}
	}
}

// TestReadMatchesReference holds Read to the reader it replaced on the
// spellings where a byte-level tokenizer and hand-decoded costs could
// part from strings.Fields and strconv: same verdict, same error text,
// same graph (see AgreesWithReference).
func TestReadMatchesReference(t *testing.T) {
	accepted := 0
	for _, in := range []string{
		// white space: CRLF, tabs, \v, \f, a bare \r, NUL (not a space)
		"pbqp 2 2\r\nv 0 1 2\r\ne 0 1 1 2 3 4\r\n",
		"pbqp\t2\t2\nv\v0\f1\t 2\n\t e 0 1 1 2 3 4 \t\n",
		"pbqp 1 2\nv 0 1\r2\n",
		"pbqp 1 2\nv 0 1\x002\n",
		"pbqp 1 2\nv 0 1 2\x00\n",
		// Unicode separators split fields too; other non-ASCII does not
		"pbqp 1 2\nv\u00a00\u00a01\u00a02\n",
		"pbqp 1 2\nv 0 1\u00852\n",
		"pbqp\u20031\u30002\nv 0 3\u2028 4\n",
		"pbqp 1 2\nv 0 1\u00a0 2 3\n",
		"pbqp 1 2\nv 0 1\u200b2\n",
		"pbqp 1 2\nv 0 \xff 2\n",
		"pbqp 1 2\nv 0 1\xc2 2\n",
		"pbqp 1 2\nv 0 ı\u0307nf 2\n",
		"pbqp 1 2\nv 0 İNF ınf\n",
		"pbqp 1 2\nv 0 1 2 # non-ASCII only in the comment: ×\u00a0\n",
		"\u00a0pbqp 1 1\nq\u00a0\n",
		"é 1 2\n",
		// spellings of infinity, zero and integers
		"pbqp 1 6\nv 0 inf +inf INF Inf infinity +Infinity\n",
		"pbqp 1 2\nv 0 -inf 0\n",
		"pbqp 1 2\nv 0 infinit 0\n",
		"pbqp 1 2\nv 0 in f\n",
		"pbqp 1 6\nv 0 0 -0 +0 00 0.0 -0.0\n",
		"pbqp 1 4\nv 0 007 7 +7 -7\n",
		"pbqp 1 4\nv 0 999999999999999 1000000000000000 9007199254740993 12345678901234567890\n",
		"pbqp 1 4\nv 0 0.1 .5 5. 1e-5\n",
		"pbqp 1 4\nv 0 1e21 1E6 -2.5e-3 0x1p-2\n",
		"pbqp 1 2\nv 0 1_000 2\n",
		"pbqp 1 2\nv 0 0x_1p0 2\n",
		"pbqp 1 2\nv 0 4.49423283715579e307 0\n",
		"pbqp 1 2\nv 0 4.4942328371557893e307 0\n",
		"pbqp 1 2\nv 0 1.7976931348623157e308 0\n",
		"pbqp 1 2\nv 0 -4.5e307 0\n",
		"pbqp 1 2\nv 0 1e999 0\n",
		"pbqp 1 2\nv 0 -1e999 0\n",
		"pbqp 1 2\nv 0 nan 0\n",
		"pbqp 1 2\nv 0 1e-999 4e-324\n",
		// ids go through strconv.Atoi
		"pbqp +2 +2\nv +1 1 2\ne +0 +1 1 2 3 4\n",
		"pbqp 2 2\nv -0 1 2\ne 01 00 1 2 3 4\n",
		"pbqp 2 2\nv 1.0 1 2\n",
		"pbqp 2 2\nv 99999999999999999999 1 2\n",
		"pbqp 2 2\ne 0 0x1 1 2 3 4\n",
		"pbqp 2 0x2\n",
		"pbqp 2\n",
		"pbqp 2 2 2\n",
		// which error wins: count before id before duplicate before cost
		"pbqp 2 2\nv 0 zebra\n",
		"pbqp 2 2\nv 9 1 zebra 3\n",
		"pbqp 2 2\nv 9 1 zebra\n",
		"pbqp 2 2\nv 0 1 2\nv 0 1 zebra\n",
		"pbqp 2 2\ne 0 1 1 2 3\n",
		"pbqp 2 2\ne 0 1 1 2 3 1e308 5\n",
		"pbqp 2 2\ne 0 1 1 2 3 4\ne 1 0 zebra 2 3 4\n",
		"pbqp 2 2\ne 0 1 1 nan 1e308 4\n",
		"pbqp 2 2\ne 0 1 1 1e308 nan 4\n",
		"pbqp 2 2\nV 0 1 2\n",
		"pbqp 2 2\nvv 0 1 2\n",
		"PBQP 2 2\n",
		"pbqp 2 2\ne 1 0 0.5 -1 2e3 inf\nv 1 3 # trailing\n",
		"pbqp 2 2 # header\n#\n   \n\t\nv 1 1 2#no space\n",
		"pbqp 3 3\ne 2 0 1 2 3 4 5 6 7 8 9\ne 1 2 0 0 inf inf 0 0 1 1 1",
		// duplicate edges: the earliest repeat, unless an error comes first
		"pbqp 3 1\ne 0 1 1\ne 0 2 1\ne 2 0 1\ne 1 0 1\n",
		"pbqp 3 1\ne 0 1 1\ne 0 1 1\ne 0 1 1\n",
		"pbqp 3 1\ne 0 1 1\ne 1 0 zebra\n",
		"pbqp 3 1\ne 0 1 zebra\ne 1 0 1\n",
		"pbqp 3 1\ne 0 1 1\ne 0 1 1 1\n",
		"pbqp 3 1\ne 0 1 1\nq\ne 1 0 1\n",
		"pbqp 3 1\ne 0 1 1\ne 1 0 1\npbqp 3 1\n",
		"pbqp 3 1\ne 0 1 1\ne 1 0 1\nv 9 1\n",
		"pbqp 4 1\ne 0 3 1\ne 0 2 1\ne 0 1 1\ne 1 2 1\ne 2 1 1\ne 3 0 1\n",
		// the walk that counts and decodes an edge line at once: a field
		// short or long, tokens near "inf" and hex, the 15/16-digit edge
		// of the integer path, every ASCII separator, matrices equal up
		// to the sign of a zero
		"pbqp 3 2\ne 0 1 0 inf inf\ne 1 2 0 inf inf 0\n",
		"pbqp 3 2\ne 0 1 0 inf inf 0 0\ne 1 2 0 inf inf 0\n",
		"pbqp 2 2\ne 0 1 0 in inf 0\n",
		"pbqp 2 2\ne 0 1 0 infx inf 0\n",
		"pbqp 2 2\ne 0 1 0 inf0 inf 0\n",
		"pbqp 2 2\ne 0 1 0 0inf inf 0\n",
		"pbqp 2 2\ne 0 1 0 0x1 inf 0\n",
		"pbqp 2 2\ne 0 1 999999999999999 1000000000000000 9007199254740993 123456789012345\n",
		"pbqp 2 2\ne\v0\f1\r0 inf\vinf\f0\t\n",
		"pbqp 3 2\ne 0 1 0 inf inf 0\ne 1 2 -0 inf inf 0\ne 2 0 0 inf inf -0\n",
		// the spelling memo: from the second line of a matrix on, a line
		// whose text after its first three fields is known is not walked.
		// Behind a known text: a prefix a field too long or too short, a
		// directive that is not "e", U+00A0 in or before the ids, bad and
		// equal endpoints, a duplicate edge; then 0 against 00 and -0,
		// CRLF against LF, a bad cost before a repeat, a non-ASCII text
		"pbqp 4 2\ne 0 1 0 inf inf 0\ne 1 2 0 inf inf 0\ne 2 3 0 inf inf 0\ne 3 0 0 inf inf 0\n",
		"pbqp 4 2\ne 0 1 0 inf inf 0\ne 1 2 0 inf inf 0\ne 2 3 1 0 inf inf 0\n",
		"pbqp 4 2\ne 0 1 0 inf inf 0\ne 1 2 0 inf inf 0\ne 2 0 inf inf 0\n",
		"pbqp 4 2\ne 0 1 0 inf inf 0\ne 1 2 0 inf inf 0\nv 0 1 0 inf inf 0\n",
		"pbqp 4 2\ne 0 1 0 inf inf 0\ne 1 2 0 inf inf 0\nv 0 0 inf inf 0\n",
		"pbqp 4 2\ne 0 1 0 inf inf 0\ne 1 2 0 inf inf 0\npbqp 2 3 0 inf inf 0\n",
		"pbqp 4 2\ne 0 1 0 inf inf 0\ne 1 2 0 inf inf 0\nq 2 3 0 inf inf 0\n",
		"pbqp 4 2\ne 0 1 0 inf inf 0\ne 1 2 0 inf inf 0\ne 2\u00a03 1 0 inf inf 0\n",
		"pbqp 4 2\ne 0 1 0 inf inf 0\ne 1 2 0 inf inf 0\ne 2\u00a03 0 inf inf 0\n",
		"pbqp 4 2\ne 0 1 0 inf inf 0\ne 1 2 0 inf inf 0\n\u00a0e 2 3 0 inf inf 0\n",
		"pbqp 4 2\ne 0 1 0 inf inf 0\ne 1 2 0 inf inf 0\ne 2 2 0 inf inf 0\n",
		"pbqp 4 2\ne 0 1 0 inf inf 0\ne 1 2 0 inf inf 0\ne 2 4 0 inf inf 0\n",
		"pbqp 4 2\ne 0 1 0 inf inf 0\ne 1 2 0 inf inf 0\ne x 3 0 inf inf 0\n",
		"pbqp 4 2\ne 0 1 0 inf inf 0\ne 1 2 0 inf inf 0\ne 2 3 0 inf inf 0\ne 2 1 0 inf inf 0\n",
		"pbqp 4 2\ne 0 1 0 inf inf 0\ne 1 2 0 inf inf 0\ne 2 3 0 inf inf 0\ne 1 0 0 inf zebra 0\n",
		"pbqp 4 2\ne 0 1 0 inf inf 0\ne 1 2 00 inf inf 0\ne 2 3 0 inf inf 0\ne 3 0 00 inf inf 0\ne 0 2 -0 inf inf 0\ne 1 3 -0 inf inf 0\n",
		"pbqp 4 2\r\ne 0 1 0 inf inf 0\r\ne 1 2 0 inf inf 0\ne 2 3 0 inf inf 0\r\ne 3 0 0 inf inf 0\n",
		"pbqp 4 2\ne 0 1 0 inf inf 0\ne 1 2 0 inf inf 0\ne 2 3 0 inf zebra 0\ne 3 0 0 inf inf 0\n",
		"pbqp 4 2\ne 0 1 0 inf 1e308 0\ne 1 2 0 inf 1e308 0\ne 2 3 0 inf 1e308 0\n",
		"pbqp 4 2\ne 0 1 0\u00a0inf inf 0\ne 1 2 0\u00a0inf inf 0\ne 2 3 0\u00a0inf inf 0\ne 3 0 0 inf\u00a0inf 0\n",
		"pbqp 4 2\ne 0 1 0 inf inf 0\ne 1 2 0 inf inf 0\ne 2 3 0 inf inf 0 # again\ne 0 3 0 inf inf 0 5\n",
	} {
		if AgreesWithReference(t, []byte(in), ReadLimits{}) != nil {
			accepted++
		}
	}
	for _, data := range corpusInputs(t) {
		if AgreesWithReference(t, data, ReadLimits{}) != nil {
			accepted++
		}
	}
	if accepted < 20 {
		t.Fatalf("only %d inputs were accepted; the comparison mostly covers rejections", accepted)
	}
}

// TestReadCountsBeforeAllocating pins count-before-allocate: under a
// "pbqp 2 4096" header an edge line is owed 16 777 216 costs, and a
// short one must be turned away on its field count before the reader
// makes the 128 MB matrix (and its transpose) to decode it into.
func TestReadCountsBeforeAllocating(t *testing.T) {
	in := []byte("pbqp 2 4096\ne 0 1 0 inf 0\n")
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "edge wants 16777216 costs") {
		t.Fatalf("Read = %v, want an edge-count rejection", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("rejecting a short edge line allocated %d bytes, want < 1 MB", got)
	}
}

// TestReadSharesIdenticalMatrices pins the reader's sharing under the
// ownership rule: edge lines whose costs are bit-identical share one
// matrix per orientation, however the costs are spelled, a line that
// differs only by the sign of a zero gets its own, and no mutator
// applied to a sharing edge shows through any other edge.
func TestReadSharesIdenticalMatrices(t *testing.T) {
	// Rows are u's color: the matrix is not symmetric, so each edge's
	// two orientations differ.
	const in = "pbqp 5 2\n" +
		"e 0 1 0 inf 2 0\n" +
		"e 1 2 00 inf 2.0 0\n" +
		"e 3 2 0 inf 2 0\n" +
		"e 3 4 -0 inf 2 0\n" +
		"e 0 4 0 inf 2 0\n"
	read := func() *Graph {
		g, err := Read(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g := read()
	for _, e := range [][2]int{{1, 2}, {3, 2}, {0, 4}} {
		if g.EdgeCost(e[0], e[1]) != g.EdgeCost(0, 1) || g.EdgeCost(e[1], e[0]) != g.EdgeCost(1, 0) {
			t.Errorf("edge %v does not share edge (0,1)'s matrices", e)
		}
	}
	if g.EdgeCost(0, 1) == g.EdgeCost(1, 0) {
		t.Error("the two orientations of an asymmetric matrix are one matrix")
	}
	if g.EdgeCost(3, 4) == g.EdgeCost(0, 1) || g.EdgeCost(4, 3) == g.EdgeCost(1, 0) {
		t.Error("a matrix with -0 shares the one with 0")
	}

	type entry struct {
		u, v int
		m    *cost.Matrix
	}
	snapshot := func(g *Graph) []entry {
		var es []entry
		for _, e := range g.Edges() {
			es = append(es, entry{e.U, e.V, e.M.Clone()}, entry{e.V, e.U, g.EdgeCost(e.V, e.U).Clone()})
		}
		return es
	}
	bump := cost.NewMatrixFrom([][]cost.Cost{{1, 2}, {3, 4}})
	for _, op := range []struct {
		name    string
		touched func(u, v int) bool // the edges the op may change
		apply   func(g *Graph)
	}{
		{"AddEdgeCost", isEdge(1, 2), func(g *Graph) { g.AddEdgeCost(1, 2, bump) }},
		{"SetEdgeCost", isEdge(1, 2), func(g *Graph) { g.SetEdgeCost(2, 1, bump) }},
		{"RemoveEdge", isEdge(1, 2), func(g *Graph) { g.RemoveEdge(1, 2) }},
		{"RemoveVertex", func(u, v int) bool { return u == 2 || v == 2 }, func(g *Graph) { g.RemoveVertex(2) }},
	} {
		g := read()
		before := snapshot(g)
		op.apply(g)
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		for _, e := range before {
			if op.touched(e.u, e.v) {
				continue
			}
			if got := g.EdgeCost(e.u, e.v); got == nil || !cost.SameBits(got.Data, e.m.Data) {
				t.Errorf("%s on a sharing edge changed edge (%d,%d): %v, was %v", op.name, e.u, e.v, got, e.m)
			}
		}
	}
}

func isEdge(a, b int) func(u, v int) bool {
	return func(u, v int) bool { return u == a && v == b || u == b && v == a }
}

// TestReadAllocatesPerDistinctMatrix pins that a parse allocates per
// distinct matrix, not per edge: ten times the identical edge lines
// cost a handful more allocations (the edge log's growth), not ten
// times the matrices.
func TestReadAllocatesPerDistinctMatrix(t *testing.T) {
	body := func(edges int) []byte {
		var b bytes.Buffer
		fmt.Fprintf(&b, "pbqp %d 4\n", edges+1)
		for u := 0; u < edges; u++ {
			fmt.Fprintf(&b, "e %d %d 0 inf 0 0 inf 0 0 0 0 0 0 inf 0 0 inf 0\n", u, u+1)
		}
		return b.Bytes()
	}
	allocs := func(data []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := Read(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(body(40)), allocs(body(400))
	t.Logf("%.0f allocations for 40 edge lines, %.0f for 400", few, many)
	if many > few+8 {
		t.Fatalf("Read of 400 identical edge lines made %.0f allocations, of 40 %.0f: allocation grows with edges", many, few)
	}
}

// TestReadAllocatesPerDistinctLine pins what the spelling memo costs a
// graph it cannot help: 400 edge lines that all carry different matrices
// allocate no more per line than the pair each needs (the matrix and its
// transpose, two allocations apiece), and keep no text.
func TestReadAllocatesPerDistinctLine(t *testing.T) {
	body := func(edges int) []byte {
		var b bytes.Buffer
		fmt.Fprintf(&b, "pbqp %d 4\n", edges+1)
		for u := 0; u < edges; u++ {
			fmt.Fprintf(&b, "e %d %d %d inf 0 0 inf 0 0 0 0 0 0 inf 0 0 inf 0\n", u, u+1, u)
		}
		return b.Bytes()
	}
	allocs := func(data []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := Read(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(body(40)), allocs(body(400))
	perLine := (many - few) / 360
	t.Logf("%.0f allocations for 40 distinct edge lines, %.0f for 400: %.2f a line", few, many, perLine)
	if perLine > 4.1 {
		t.Fatalf("Read made %.2f allocations per distinct edge line, want the pair's 4 and the logs' growth", perLine)
	}
	var edges []edgeLine
	var ms matrices
	if _, err := readLines(bytes.NewReader(body(400)), DefaultReadLimits(), &edges, &ms); err != nil {
		t.Fatal(err)
	}
	if len(ms.texts) != 0 {
		t.Fatalf("no matrix repeats, yet %d spellings were kept", len(ms.texts))
	}
}

// TestReadMemoHoldsAtMostTheBytesRead reads 400 spellings of one matrix
// — each line spaces its costs with tabs by the bits of its number — and
// checks that every line after the first is kept, once, and that the
// text kept is less than the text read.
func TestReadMemoHoldsAtMostTheBytesRead(t *testing.T) {
	var b bytes.Buffer
	b.WriteString("pbqp 401 4\n")
	for u := 0; u < 400; u++ {
		fmt.Fprintf(&b, "e %d %d", u, u+1)
		for i, c := range strings.Fields("0 inf 0 0 inf 0 0 0 0 0 0 inf 0 0 inf 0") {
			sep := " "
			if u>>i&1 == 1 {
				sep = "\t"
			}
			b.WriteString(sep + c)
		}
		b.WriteByte('\n')
	}
	var edges []edgeLine
	var ms matrices
	if _, err := readLines(bytes.NewReader(b.Bytes()), DefaultReadLimits(), &edges, &ms); err != nil {
		t.Fatal(err)
	}
	held := 0
	for text := range ms.texts {
		held += len(text)
	}
	t.Logf("%d spellings kept, %d bytes of %d read", len(ms.texts), held, b.Len())
	if len(ms.texts) != 399 || held >= b.Len() {
		t.Fatalf("kept %d spellings of %d bytes from %d bytes read, want 399 and fewer bytes", len(ms.texts), held, b.Len())
	}
}

// FuzzReadGraph asserts the parser's safety properties on arbitrary
// bytes: it never panics, it agrees with the reader it replaced
// (AgreesWithReference), and anything it accepts serializes through
// Write→Read→Write byte-stably, AppendText giving Write's bytes.
func FuzzReadGraph(f *testing.F) {
	f.Add([]byte("pbqp 3 2\nv 0 5 2\nv 1 5 0\ne 0 1 0 inf inf 4\n"))
	f.Add([]byte("pbqp 1 1\n"))
	f.Add([]byte("pbqp 2 2\n# comment\nv 1 inf 0\ne 0 1 1 2 3 4\n"))
	f.Add([]byte("pbqp 0 3\n"))
	f.Add([]byte("pbqp 2 2\ne 1 0 0.5 -1 2e3 inf\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Under the package caps a mutated "pbqp 4000000 16" header is a
		// gigabyte of empty graph per parse, and the comparison parses
		// twice: fuzz workers were seen at 1.1 GB RSS and one died while
		// minimizing. The caps' own values are TestReadWithLimits' business.
		g := AgreesWithReference(t, data, ReadLimits{MaxVertices: 1 << 8, MaxColors: 1 << 8})
		if g == nil {
			return // rejected: fine, as long as we did not panic
		}
		var first bytes.Buffer
		if err := Write(&first, g); err != nil {
			t.Fatalf("cannot serialize accepted graph: %v", err)
		}
		g2, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("own output rejected: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := Write(&second, g2); err != nil {
			t.Fatalf("cannot re-serialize: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Write→Read→Write not byte-stable:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
		if text, err := AppendText(nil, g); err != nil || !bytes.Equal(text, first.Bytes()) {
			t.Fatalf("AppendText gives other bytes than Write (%v):\n%s\nvs\n%s", err, text, first.Bytes())
		}
	})
}

// TestWriteReadRoundTrip pins exact value round-tripping, including
// awkward floats.
func TestWriteReadRoundTrip(t *testing.T) {
	g := New(3, 2)
	g.SetVertexCost(0, cost.Vector{0.1, cost.Inf})
	g.SetVertexCost(1, cost.Vector{1e307, 1.0 / 3})
	g.SetEdgeCost(0, 2, cost.NewMatrixFrom([][]cost.Cost{
		{0, 0.30000000000000004},
		{cost.Inf, 42},
	}))
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.Bytes())
	}
	for u := 0; u < 3; u++ {
		if !g.VertexCost(u).Equal(h.VertexCost(u)) {
			t.Fatalf("vertex %d: %v != %v", u, g.VertexCost(u), h.VertexCost(u))
		}
	}
	if !g.EdgeCost(0, 2).Equal(h.EdgeCost(0, 2)) {
		t.Fatalf("edge (0,2): %v != %v", g.EdgeCost(0, 2), h.EdgeCost(0, 2))
	}
}

func TestElide(t *testing.T) {
	if got := Elide("short", 64); got != "short" {
		t.Fatalf("Elide within budget = %q", got)
	}
	if got := Elide("abc", 3); got != "abc" {
		t.Fatalf("Elide at exact budget = %q", got)
	}
	long := strings.Repeat("x", 100)
	got := Elide(long, 10)
	want := strings.Repeat("x", 10) + "\n... (90 bytes elided)"
	if got != want {
		t.Fatalf("Elide(100x, 10) = %q, want %q", got, want)
	}
	if got := Elide("abc", -1); got != "\n... (3 bytes elided)" {
		t.Fatalf("Elide negative budget = %q", got)
	}
}

// TailGraph has a row in each state AppendText walks in place: vertex
// 10's row is an ascending prefix of even neighbors 20–58 with a
// tombstone (26), then an unsorted tail (25, 5, 41, 13) whose entries
// fall below 10, between prefix entries and inside the prefix's range.
// Three matrices serve its edges, so the span memo both hits and misses.
func TailGraph(t testing.TB) *Graph {
	t.Helper()
	mats := []*cost.Matrix{
		cost.NewMatrixFrom([][]cost.Cost{{0, cost.Inf}, {cost.Inf, 0}}),
		cost.NewMatrixFrom([][]cost.Cost{{0.5, 0}, {-2, 1e300}}),
		cost.NewMatrixFrom([][]cost.Cost{{cost.Inf, 3}, {0, 0}}),
	}
	g := New(60, 2)
	for v := 20; v < 60; v += 2 {
		g.SetEdgeCost(10, v, mats[v%3])
	}
	for i, v := range []int{25, 5, 41, 13} {
		g.SetEdgeCost(10, v, mats[i%3])
	}
	g.RemoveEdge(10, 26)
	if r := &g.rows[10]; r.dead == 0 || r.sorted == len(r.es) {
		t.Fatalf("row 10 has %d tombstones and a tail of %d, want both", r.dead, len(r.es)-r.sorted)
	}
	return g
}
