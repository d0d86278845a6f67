package pbqp_test

// Tests of the text codec that need the real generators (internal/ate,
// internal/randgraph), which import this package and so cannot be used
// from its internal tests.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pbqprl/internal/ate"
	"pbqprl/internal/cost"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/randgraph"
)

// ateGraph is the PBQP graph of the synthetic ATE program (vregs, seed)
// with ate.Suite's generator settings — what the serving benchmark
// sends: m = 13, every cost 0 or inf.
func ateGraph(t testing.TB, vregs int, seed int64) *pbqp.Graph {
	t.Helper()
	prog, _ := ate.Generate(ate.DefaultMachine(), ate.GenConfig{
		Name: "codec", NumVRegs: vregs, PairRatio: 0.30, HardRatio: 0.40, MaxLive: 8, Seed: seed,
	})
	g, err := ate.BuildPBQP(prog)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// finiteGraph is an Erdős–Rényi graph of random real costs, 1 % inf:
// nearly every token is a 17-digit decimal, the reader's slow path.
func finiteGraph(seed int64, n, m int) *pbqp.Graph {
	return randgraph.ErdosRenyi(rand.New(rand.NewSource(seed)),
		randgraph.Config{N: n, M: m, PEdge: 0.3, PInf: 0.01})
}

// notationGraph holds the values where strconv's 'g', -1 formatting
// switches notation, beside both zeros and inf.
func notationGraph() *pbqp.Graph {
	negZero := cost.Cost(0)
	negZero = -negZero
	g := pbqp.New(3, 4)
	g.SetVertexCost(0, cost.Vector{0, negZero, 0.1, 1.0 / 3})
	g.SetVertexCost(1, cost.Vector{0.30000000000000004, 999999, 1e6, 1e-5})
	g.SetVertexCost(2, cost.Vector{1e21, 1e307, cost.Inf, 0})
	g.SetEdgeCost(0, 2, cost.NewMatrixFrom([][]cost.Cost{
		{0, negZero, 0.1, 1.0 / 3},
		{0.30000000000000004, 999999, 1e6, 1e-5},
		{1e21, 1e307, cost.Inf, 0},
		{-1, -0.5, 1e20, 123456789012345678},
	}))
	return g
}

func readFile(t testing.TB, path string) *pbqp.Graph {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	g, err := pbqp.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCanonicalHashGolden pins the bytes the caches are keyed on. The
// digests were recorded at the parent of the PR that rewrote the codec
// (PR 23, commit e09ebbf): the router's solution cache and its
// consistent-hash ring both key on CanonicalHash, so a digest that
// moves is a cache flush and a reshard on deploy, and old and new
// processes disagree on placement during a rolling upgrade.
func TestCanonicalHashGolden(t *testing.T) {
	cases := []struct {
		name string
		g    *pbqp.Graph
		want string
	}{
		{"fig2", readFile(t, filepath.Join("..", "..", "testdata", "fig2.pbqp")),
			"17747ab6c8bff7cc257888c92c4450c0bd04be7551caa597b7024dd4e89f398d"},
		{"ate-28-1000", ateGraph(t, 28, 1000),
			"92ae38fb03854619484e594b858915a47e9344ecbef88c9339cd1c466e1e578d"},
		{"ate-60-3000", ateGraph(t, 60, 3000),
			"80789d3d90d4c1686a207c264d1d974e065ea78c112e072565c3295a854477fd"},
		{"ate-115-6000", ateGraph(t, 115, 6000),
			"7bfbbe5651c0e4e24ca755c5f3ce478d658f1c044ed1880054468d7450b0638c"},
		{"randgraph-finite", finiteGraph(7, 30, 8),
			"3e69b0a09761783b68817ca56282c7bba36f8faf13f5e5d54a7ff2ad6d48fbda"},
		{"notation", notationGraph(),
			"5d190a726464a2cb758c05e5beae55d944e545f11912dddef889b9754b4477dd"},
	}
	for _, tc := range cases {
		got, err := pbqp.CanonicalHashString(tc.g)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: CanonicalHashString = %s, recorded %s", tc.name, got, tc.want)
		}
	}
}

func serialize(t testing.TB, g *pbqp.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := pbqp.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// spicedGraph is finiteGraph with the finite costs a register allocator
// also writes: negative coalescing hints, integers, and magnitudes that
// print with an exponent.
func spicedGraph(seed int64, n, m int) *pbqp.Graph {
	g := finiteGraph(seed, n, m)
	rng := rand.New(rand.NewSource(seed))
	spice := func(c cost.Cost) cost.Cost {
		if c.IsInf() {
			return c
		}
		switch rng.Intn(6) {
		case 0:
			return -c
		case 1:
			return cost.Cost(int(c))
		case 2:
			return c * 1e-7
		case 3:
			return c * 1e22
		}
		return c
	}
	for u := 0; u < n; u++ {
		vec := g.VertexCost(u).Clone()
		for i := range vec {
			vec[i] = spice(vec[i])
		}
		g.SetVertexCost(u, vec)
	}
	for _, e := range g.Edges() {
		mat := e.M.Clone()
		for i := range mat.Data {
			mat.Data[i] = spice(mat.Data[i])
		}
		g.SetEdgeCost(e.U, e.V, mat)
	}
	return g
}

// TestReadMatchesReferenceOnGeneratedGraphs runs the comparison of
// TestReadMatchesReference over what the generators write, as written
// and under four respellings of the separators, and checks that reading a graph's
// serialization gives the graph back.
func TestReadMatchesReferenceOnGeneratedGraphs(t *testing.T) {
	graphs := map[string]*pbqp.Graph{
		"fig2":      readFile(t, filepath.Join("..", "..", "testdata", "fig2.pbqp")),
		"ate-28":    ateGraph(t, 28, 1000),
		"ate-60":    ateGraph(t, 60, 3000),
		"finite":    finiteGraph(7, 30, 8),
		"spiced":    spicedGraph(11, 24, 6),
		"notation":  notationGraph(),
		"edgeless":  pbqp.New(5, 3),
		"no-vertex": pbqp.New(0, 2),
	}
	for name, g := range graphs {
		text := serialize(t, g)
		for _, sep := range []struct{ old, new string }{
			{" ", " "}, {"\n", "\r\n"}, {" ", "\t \v\f"}, {" ", "\u00a0"}, {" ", " \u0085"},
		} {
			respelled := bytes.ReplaceAll(text, []byte(sep.old), []byte(sep.new))
			back := pbqp.AgreesWithReference(t, respelled, pbqp.ReadLimits{})
			if back == nil {
				t.Fatalf("%s with %q for %q: rejected", name, sep.new, sep.old)
			}
			if !bytes.Equal(serialize(t, back), text) {
				t.Fatalf("%s with %q for %q: Write→Read→Write changed the bytes", name, sep.new, sep.old)
			}
		}
	}
}

// respellings rewrite the lines of a serialized graph without changing
// the graph they spell. Each edits the fields of the lines it is given;
// the header stays the first line.
var respellings = []struct {
	name  string
	apply func(rng *rand.Rand, m int, lines [][]string) [][]string
}{
	{"zeros", func(_ *rand.Rand, _ int, lines [][]string) [][]string {
		for _, l := range lines {
			for i, f := range l {
				if f == "0" {
					l[i] = "00"
				}
			}
		}
		return lines
	}},
	{"flipped", func(_ *rand.Rand, m int, lines [][]string) [][]string {
		for k, l := range lines {
			if l[0] != "e" {
				continue
			}
			flipped := []string{"e", l[2], l[1]}
			for j := 0; j < m; j++ {
				for i := 0; i < m; i++ {
					flipped = append(flipped, l[3+i*m+j])
				}
			}
			lines[k] = flipped
		}
		return lines
	}},
	{"separators", func(_ *rand.Rand, _ int, lines [][]string) [][]string {
		for _, l := range lines {
			for i := 1; i < len(l); i++ {
				l[i] = "\t " + l[i]
			}
		}
		return lines
	}},
	{"shuffled", func(rng *rand.Rand, _ int, lines [][]string) [][]string {
		rest := lines[1:]
		rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
		return lines
	}},
	{"comment", func(_ *rand.Rand, _ int, lines [][]string) [][]string {
		return append(lines, []string{"#", "respelled"})
	}},
}

func splitLines(text []byte) [][]string {
	var lines [][]string
	for _, l := range strings.Split(strings.TrimSuffix(string(text), "\n"), "\n") {
		lines = append(lines, strings.Fields(l))
	}
	return lines
}

func joinLines(lines [][]string) []byte {
	var b bytes.Buffer
	for _, l := range lines {
		b.WriteString(strings.Join(l, " "))
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// TestAppendTextIsWrite holds the one serializer to its wrappers and
// its walk: after a non-empty prefix, AppendText gives the prefix and
// then Write's bytes (the span memo's offsets are absolute in dst), its
// edge lines are Edges() in order with each cost as cost.Cost.String
// renders it, and into a buffer with room it allocates nothing for a
// graph whose rows are tidy, as Read leaves them. The graphs are a
// Read-built ATE graph, whose edges share a few matrices, and
// pbqp.TailGraph, whose row 10 has a tombstone and an unsorted tail.
func TestAppendTextIsWrite(t *testing.T) {
	read, err := pbqp.Read(bytes.NewReader(serialize(t, ateGraph(t, 60, 3000))))
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*pbqp.Graph{"ate-60": read, "tail": pbqp.TailGraph(t)} {
		prefix := []byte("# a prefix\n")
		got, err := pbqp.AppendText(bytes.Clone(prefix), g)
		if err != nil {
			t.Fatal(err)
		}
		text := serialize(t, g)
		if !bytes.Equal(got, append(prefix, text...)) {
			t.Fatalf("%s: AppendText after a prefix is not the prefix and Write's bytes", name)
		}
		var edges strings.Builder
		for _, e := range g.Edges() {
			fmt.Fprintf(&edges, "e %d %d", e.U, e.V)
			for _, c := range e.M.Data {
				fmt.Fprintf(&edges, " %v", c)
			}
			edges.WriteByte('\n')
		}
		if !strings.HasSuffix(string(text), edges.String()) || strings.Count(string(text), "\ne ") != g.NumEdges() {
			t.Fatalf("%s: the edge lines are not Edges() in order:\n%s", name, text)
		}
	}
	text := serialize(t, read)
	buf := make([]byte, 0, len(text))
	if allocs := testing.AllocsPerRun(20, func() { buf, _ = pbqp.AppendText(buf[:0], read) }); allocs != 0 {
		t.Fatalf("AppendText of a Read-built graph into a buffer with room allocates %v times", allocs)
	}
}

// TestCanonicalFormOfRespellings holds the canonical form to the
// relation that needs no oracle: a graph respelled in any of five ways,
// or in all of them at once, writes back to the bytes it was read from
// and hashes to its digest, while changing any one cost entry of its
// text changes the digest. The edge lines of an ATE graph repeat one
// another's costs, so most of them reach the reader's spelling memo.
func TestCanonicalFormOfRespellings(t *testing.T) {
	graphs := map[string]*pbqp.Graph{
		"ate-28": ateGraph(t, 28, 1000),
		"ate-60": ateGraph(t, 60, 3000),
		"finite": finiteGraph(7, 30, 8),
		"spiced": spicedGraph(11, 24, 6),
	}
	rng := rand.New(rand.NewSource(37))
	for name, g := range graphs {
		text := serialize(t, g)
		want, err := pbqp.CanonicalHash(g)
		if err != nil {
			t.Fatal(err)
		}
		check := func(how string, respelled []byte) {
			back, err := pbqp.Read(bytes.NewReader(respelled))
			if err != nil {
				t.Fatalf("%s, %s: %v", name, how, err)
			}
			if !bytes.Equal(serialize(t, back), text) {
				t.Fatalf("%s, %s: the respelling writes other bytes", name, how)
			}
			if got, err := pbqp.CanonicalHash(back); err != nil || got != want {
				t.Fatalf("%s, %s: CanonicalHash %x, %v; want %x", name, how, got, err, want)
			}
		}
		all := splitLines(text)
		for _, r := range respellings {
			check(r.name, joinLines(r.apply(rng, g.M(), splitLines(text))))
			all = r.apply(rng, g.M(), all)
		}
		check("all at once", joinLines(all))

		for range 40 {
			lines := splitLines(text)
			l := lines[1+rng.Intn(len(lines)-1)]
			ids := 2 // "v u", or "e u v"
			if l[0] == "e" {
				ids = 3
			}
			i := ids + rng.Intn(len(l)-ids)
			was := l[i]
			if l[i] = "inf"; was == "inf" {
				l[i] = "0"
			}
			changed, err := pbqp.Read(bytes.NewReader(joinLines(lines)))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got, err := pbqp.CanonicalHash(changed); err != nil || got == want {
				t.Fatalf("%s: %s on %q left the digest at %x (%v)", name, was, l[:ids], got, err)
			}
		}
	}
}

// mutationAlphabet is what a mutated byte becomes: the characters of
// numbers and of the infinity spellings, every ASCII space, the comment
// mark, and the bytes that make U+00A0, U+0085, an invalid sequence or
// a NUL.
const mutationAlphabet = "0123456789.-+eEinfINFtyxp_# \t\v\f\r\n\x00\x80\x85\xa0\xc2\xe2\xff"

// mutationTokens replace a whole field.
var mutationTokens = []string{
	"0", "-0", "007", "inf", "+inf", "INF", "infinity", "-inf", "nan", "+1", "1.5", ".5", "5.",
	"1e-5", "1e21", "1e308", "-1e308", "1e999", "0x1p-2", "123456789012345", "1234567890123456",
	"\u00a0", "\u0085", "\u2003", "", "v", "e", "pbqp", "#",
}

func mutate(rng *rand.Rand, in []byte) []byte {
	out := append([]byte(nil), in...)
	fieldEnd := func(i int) int {
		for i < len(out) && out[i] != ' ' && out[i] != '\n' {
			i++
		}
		return i
	}
	splice := func(lo, hi int, with string) {
		out = append(out[:lo], append([]byte(with), out[hi:]...)...)
	}
	for k := 1 + rng.Intn(3); k > 0 && len(out) > 0; k-- {
		i := rng.Intn(len(out))
		b := mutationAlphabet[rng.Intn(len(mutationAlphabet)):][:1]
		switch rng.Intn(6) {
		case 0:
			splice(i, i+1, b)
		case 1:
			splice(i, i, b)
		case 2:
			splice(i, i+1, "")
		case 3: // replace the field around i
			lo := i
			for lo > 0 && out[lo-1] != ' ' && out[lo-1] != '\n' {
				lo--
			}
			splice(lo, fieldEnd(i), mutationTokens[rng.Intn(len(mutationTokens))])
		case 4: // drop a field's tail, and often the field: the count is off by one
			splice(i, fieldEnd(i), "")
		case 5: // one field too many
			splice(fieldEnd(i), fieldEnd(i), " 3")
		}
	}
	return out
}

// TestReadMatchesReferenceUnderMutation is the comparison over seeded
// byte mutations of valid graphs: 100 000 of small ones, where a single
// byte is a large share of the input, and a few hundred of graphs with
// long edge lines.
func TestReadMatchesReferenceUnderMutation(t *testing.T) {
	small := [][]byte{
		[]byte("pbqp 3 2\nv 0 5 2\nv 1 5 0\nv 2 0 0\ne 0 1 1 3 7 8\ne 1 2 0 4 9 6\ne 0 2 0 2 5 3\n"),
		[]byte("pbqp 2 2\n# comment\nv 1 inf 0\ne 0 1 1 2 3 4\n"),
		[]byte("pbqp 2 2\r\ne 1 0 0.5 -1 2e3 inf\r\n"),
		serialize(t, spicedGraph(3, 4, 3)),
		serialize(t, notationGraph()),
	}
	rounds := 100000
	if testing.Short() {
		rounds = 10000
	}
	rng := rand.New(rand.NewSource(23))
	accepted := 0
	for i := 0; i < rounds; i++ {
		if pbqp.AgreesWithReference(t, mutate(rng, small[i%len(small)]), pbqp.ReadLimits{}) != nil {
			accepted++
		}
	}
	if accepted < rounds/20 || accepted > rounds*19/20 {
		t.Fatalf("%d of %d mutants accepted: the mutations do not straddle the accept/reject line", accepted, rounds)
	}
	t.Logf("%d of %d small mutants accepted", accepted, rounds)
	for _, big := range [][]byte{serialize(t, ateGraph(t, 28, 1000)), serialize(t, spicedGraph(5, 16, 8))} {
		for i := 0; i < rounds/500; i++ {
			pbqp.AgreesWithReference(t, mutate(rng, big), pbqp.ReadLimits{})
		}
	}
}
