package pbqp

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"pbqprl/internal/cost"
)

// fig2Graph builds the 3-vertex, 2-color example from Figure 2 of the
// paper: a triangle where selection (colors 2,2,1 one-based) costs
// (2+0+0)+(8+9+5) = 24 and selection (1,1,1) is optimal at
// (5+5+0)+(1+0+0) = 11.
func fig2Graph() *Graph {
	g := New(3, 2)
	g.SetVertexCost(0, cost.Vector{5, 2})
	g.SetVertexCost(1, cost.Vector{5, 0})
	g.SetVertexCost(2, cost.Vector{0, 0})
	g.SetEdgeCost(0, 1, cost.NewMatrixFrom([][]cost.Cost{{1, 3}, {7, 8}}))
	g.SetEdgeCost(1, 2, cost.NewMatrixFrom([][]cost.Cost{{0, 4}, {9, 6}}))
	g.SetEdgeCost(0, 2, cost.NewMatrixFrom([][]cost.Cost{{0, 2}, {5, 3}}))
	return g
}

func TestFig2TotalCost(t *testing.T) {
	g := fig2Graph()
	if got := g.TotalCost(Selection{1, 1, 0}); got != 24 {
		t.Errorf("cost(1,1,0) = %v, want 24", got)
	}
	if got := g.TotalCost(Selection{0, 0, 0}); got != 11 {
		t.Errorf("cost(0,0,0) = %v, want 11", got)
	}
}

func TestEdgeOrientation(t *testing.T) {
	g := New(2, 2)
	mat := cost.NewMatrixFrom([][]cost.Cost{{1, 2}, {3, 4}})
	g.SetEdgeCost(0, 1, mat)
	if got := g.EdgeCost(0, 1).At(0, 1); got != 2 {
		t.Errorf("EdgeCost(0,1)[0,1] = %v, want 2", got)
	}
	if got := g.EdgeCost(1, 0).At(1, 0); got != 2 {
		t.Errorf("EdgeCost(1,0)[1,0] = %v, want 2", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddEdgeCostMerges(t *testing.T) {
	g := New(2, 2)
	m1 := cost.NewMatrixFrom([][]cost.Cost{{1, 0}, {0, 0}})
	g.AddEdgeCost(0, 1, m1)
	g.AddEdgeCost(1, 0, cost.NewMatrixFrom([][]cost.Cost{{0, 10}, {0, 0}}))
	// second add is oriented from vertex 1, so entry (1's color 0, 0's
	// color 1) = 10, i.e. (0's color 1, 1's color 0) in canonical form.
	e := g.EdgeCost(0, 1)
	if e.At(0, 0) != 1 || e.At(1, 0) != 10 {
		t.Errorf("merged edge = %v", e)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveVertexAndEdges(t *testing.T) {
	g := fig2Graph()
	g.RemoveVertex(1)
	if g.Degree(0) != 1 || g.Degree(2) != 1 {
		t.Error("edges to removed vertex remain")
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
	g.RemoveVertex(1) // idempotent
	if g.AliveCount() != 2 {
		t.Errorf("AliveCount = %d", g.AliveCount())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveEdge(t *testing.T) {
	g := fig2Graph()
	g.RemoveEdge(1, 0)
	if g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Error("edge remains after RemoveEdge")
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := New(4, 2)
	z := cost.NewMatrixFrom([][]cost.Cost{{1, 0}, {0, 0}})
	g.SetEdgeCost(2, 3, z)
	g.SetEdgeCost(2, 0, z)
	g.SetEdgeCost(2, 1, z)
	ns := g.Neighbors(2)
	if len(ns) != 3 || ns[0] != 0 || ns[1] != 1 || ns[2] != 3 {
		t.Errorf("Neighbors = %v", ns)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := fig2Graph()
	c := g.Clone()
	c.RemoveVertex(0)
	c.AddToVertexCost(2, cost.Vector{100, 100})
	if !g.Alive(0) {
		t.Error("clone mutation leaked liveness")
	}
	if g.VertexCost(2)[0] != 0 {
		t.Error("clone mutation leaked vector")
	}
	if g.EdgeCost(0, 1) == nil {
		t.Error("clone mutation leaked edges")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPermute(t *testing.T) {
	g := fig2Graph()
	h := g.Permute([]int{2, 0, 1}) // new0=old2, new1=old0, new2=old1
	if !h.VertexCost(0).Equal(g.VertexCost(2)) {
		t.Error("vertex cost not carried")
	}
	// old edge (0,1) becomes new edge (1,2) with same orientation
	if got := h.EdgeCost(1, 2); got == nil || got.At(0, 1) != 3 {
		t.Errorf("edge not carried: %v", got)
	}
	// cost is invariant under the renumbering
	for s0 := 0; s0 < 2; s0++ {
		for s1 := 0; s1 < 2; s1++ {
			for s2 := 0; s2 < 2; s2++ {
				a := g.TotalCost(Selection{s0, s1, s2})
				b := h.TotalCost(Selection{s2, s0, s1})
				if a != b {
					t.Fatalf("cost changed under permutation: %v vs %v", a, b)
				}
			}
		}
	}
	mustPanic(t, "duplicate", func() { g.Permute([]int{0, 0, 1}) })
	mustPanic(t, "short", func() { g.Permute([]int{0, 1}) })
}

func TestTotalCostInfinity(t *testing.T) {
	g := New(2, 2)
	g.SetVertexCost(0, cost.Vector{0, cost.Inf})
	mat := cost.NewMatrix(2, 2)
	mat.Set(0, 0, cost.Inf)
	g.SetEdgeCost(0, 1, mat)
	if !g.TotalCost(Selection{1, 0}).IsInf() {
		t.Error("inf vertex cost not propagated")
	}
	if !g.TotalCost(Selection{0, 0}).IsInf() {
		t.Error("inf edge cost not propagated")
	}
	if g.TotalCost(Selection{0, 1}).IsInf() {
		t.Error("finite selection reported infinite")
	}
}

// TestInfiniteSumsKeepInfsBits: Eq. 1 saturates, so a sum with an
// infinite term is cost.Inf itself, to the bit. Raw float addition
// overflows MaxFloat64 + MaxFloat64 to IEEE +Inf, which IsInf accepts
// but the bit-for-bit comparisons of costs elsewhere do not.
func TestInfiniteSumsKeepInfsBits(t *testing.T) {
	isInf := func(what string, got cost.Cost) {
		t.Helper()
		if math.Float64bits(float64(got)) != math.Float64bits(float64(cost.Inf)) {
			t.Errorf("%s = %v (%x), want the bits of cost.Inf", what, got, math.Float64bits(float64(got)))
		}
	}
	g := New(2, 2)
	g.SetVertexCost(0, cost.Vector{cost.Inf, 0})
	g.SetVertexCost(1, cost.Vector{cost.Inf, 0})
	isInf("TotalCost over two forbidden vertex terms", g.TotalCost(Selection{0, 0}))
	g.AddToVertexCost(0, cost.Vector{cost.Inf, cost.Inf})
	isInf("Inf added to an infinite entry", g.VertexCost(0)[0])
	isInf("Inf added to a finite entry", g.VertexCost(0)[1])
}

func TestRoundTripSerialization(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 12, 3, 0.4, 0.1)
	var b strings.Builder
	if err := Write(&b, g); err != nil {
		t.Fatal(err)
	}
	h, err := Read(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if h.NumVertices() != g.NumVertices() || h.M() != g.M() || h.NumEdges() != g.NumEdges() {
		t.Fatalf("shape mismatch after round trip")
	}
	for u := 0; u < g.NumVertices(); u++ {
		if !h.VertexCost(u).Equal(g.VertexCost(u)) {
			t.Errorf("vertex %d vector differs", u)
		}
	}
	for _, e := range g.Edges() {
		he := h.EdgeCost(e.U, e.V)
		if he == nil || !he.Equal(e.M) {
			t.Errorf("edge (%d,%d) differs", e.U, e.V)
		}
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"",                        // missing header
		"v 0 1 2",                 // vertex before header
		"e 0 1 0 0 0 0",           // edge before header
		"pbqp 2 2\npbqp 2 2",      // duplicate header
		"pbqp -1 2",               // bad n
		"pbqp 2 0",                // bad m
		"pbqp 2",                  // short header
		"pbqp 2 2\nv 5 0 0",       // vertex id out of range
		"pbqp 2 2\nv 0 0",         // wrong vector length
		"pbqp 2 2\nv 0 a b",       // bad cost
		"pbqp 2 2\ne 0 0 0 0 0 0", // self loop
		"pbqp 2 2\ne 0 1 0 0",     // wrong matrix length
		"pbqp 2 2\nx 1 2",         // unknown directive
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("Read(%q) succeeded, want error", c)
		}
	}
}

func TestReadComments(t *testing.T) {
	src := "# a comment\npbqp 2 2 # trailing\n\nv 0 1 inf\ne 0 1 0 1 2 3\n"
	g, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if !g.VertexCost(0)[1].IsInf() {
		t.Error("inf cost not parsed")
	}
	if g.EdgeCost(0, 1).At(1, 0) != 2 {
		t.Error("edge not parsed")
	}
}

func TestWriteRejectsReducedGraph(t *testing.T) {
	g := fig2Graph()
	g.RemoveVertex(0)
	if err := Write(&strings.Builder{}, g); err == nil {
		t.Error("Write accepted a reduced graph")
	}
}

// randomGraph builds a random Erdős–Rényi style PBQP graph for tests.
// (The production generator lives in internal/randgraph; this local copy
// keeps the package dependency-free.)
func randomGraph(rng *rand.Rand, n, m int, pEdge, pInf float64) *Graph {
	g := New(n, m)
	randCost := func() cost.Cost {
		if rng.Float64() < pInf {
			return cost.Inf
		}
		return cost.Cost(rng.Intn(10))
	}
	for u := 0; u < n; u++ {
		v := make(cost.Vector, m)
		for i := range v {
			v[i] = randCost()
		}
		g.SetVertexCost(u, v)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < pEdge {
				mat := cost.NewMatrix(m, m)
				for i := range mat.Data {
					mat.Data[i] = randCost()
				}
				g.SetEdgeCost(u, v, mat)
			}
		}
	}
	return g
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func writeString(t *testing.T, g *Graph) string {
	t.Helper()
	var b strings.Builder
	if err := Write(&b, g); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestCloneSharesMatricesSafely pins the ownership rule behind the
// matrix-sharing Clone: no sequence of mutations of one graph — edge
// folds onto existing edges included — is visible through the other,
// in either direction, and the mutated side keeps both orientations of
// every edge in sync.
func TestCloneSharesMatricesSafely(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randMat := func(m int) *cost.Matrix {
		mat := cost.NewMatrix(m, m)
		for i := range mat.Data {
			mat.Data[i] = cost.Cost(1 + rng.Intn(9))
		}
		return mat
	}
	for trial := 0; trial < 80; trial++ {
		n, m := 4+rng.Intn(7), 1+rng.Intn(3)
		g := randomGraph(rng, n, m, 0.5, 0.1)
		c := g.Clone()
		mutated, kept := c, g
		if trial%2 == 1 {
			mutated, kept = g, c // and vice versa
		}
		want := writeString(t, kept)
		for step := 0; step < 25 && mutated.AliveCount() >= 2; step++ {
			alive := mutated.Vertices()
			rng.Shuffle(len(alive), func(i, j int) { alive[i], alive[j] = alive[j], alive[i] })
			u, v := alive[0], alive[1]
			switch rng.Intn(6) {
			case 0:
				mutated.AddEdgeCost(u, v, randMat(m))
			case 1:
				// fold onto an edge both graphs still share, when there is one
				if ns := mutated.Neighbors(u); len(ns) > 0 {
					v = ns[rng.Intn(len(ns))]
				}
				before := mutated.EdgeCost(u, v)
				mutated.AddEdgeCost(u, v, randMat(m))
				if before != nil && mutated.EdgeCost(u, v) == before {
					t.Fatal("AddEdgeCost wrote into the installed matrix instead of replacing it")
				}
			case 2:
				mutated.SetEdgeCost(u, v, randMat(m))
			case 3:
				mutated.RemoveEdge(u, v)
			case 4:
				mutated.RemoveVertex(u)
			case 5:
				mutated.SetVertexCost(u, randMat(m).Row(0))
				mutated.AddToVertexCost(v, randMat(m).Row(0))
			}
			if err := mutated.Validate(); err != nil {
				t.Fatalf("trial %d step %d: mutated side: %v", trial, step, err)
			}
		}
		if got := writeString(t, kept); got != want {
			t.Fatalf("trial %d: mutating one graph changed the other\nbefore:\n%s\nafter:\n%s", trial, want, got)
		}
		if err := kept.Validate(); err != nil {
			t.Fatalf("trial %d: untouched side: %v", trial, err)
		}
	}
}

// TestInduced: the induced subgraph carries copies of the listed
// vertices' vectors and shares — in both orientations — exactly the
// edges between them.
func TestInduced(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(rng, 9, 3, 0.6, 0.1)
	g.RemoveVertex(4)
	verts := []int{7, 2, 5, 0}
	h := g.Induced(verts)
	if h.NumVertices() != len(verts) || h.AliveCount() != len(verts) || h.M() != g.M() {
		t.Fatalf("induced graph is %d/%d vertices, m=%d", h.AliveCount(), h.NumVertices(), h.M())
	}
	edges := 0
	for i, u := range verts {
		if !h.VertexCost(i).Equal(g.VertexCost(u)) {
			t.Errorf("vertex %d: vector %v, want %v", i, h.VertexCost(i), g.VertexCost(u))
		}
		for j, v := range verts {
			if h.EdgeCost(i, j) != g.EdgeCost(u, v) {
				t.Errorf("edge (%d,%d) is not g's own matrix for (%d,%d)", i, j, u, v)
			}
			if i < j && g.HasEdge(u, v) {
				edges++
			}
		}
	}
	if h.NumEdges() != edges {
		t.Errorf("induced graph has %d edges, want %d", h.NumEdges(), edges)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	before := g.String()
	h.AddToVertexCost(0, cost.Vector{1, 1, 1})
	h.RemoveVertex(1)
	if g.String() != before {
		t.Error("mutating the induced graph leaked into its source")
	}
	mustPanic(t, "dead vertex", func() { g.Induced([]int{0, 4}) })
	mustPanic(t, "duplicate vertex", func() { g.Induced([]int{1, 1}) })
}

// TestInducedIntoReuses: one graph induced into from a large graph,
// then a small one, then after a rejected vertex list, is each time the
// graph Induced returns, and stops holding the larger graph's matrices.
func TestInducedIntoReuses(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	big, small := randomGraph(rng, 30, 3, 0.5, 0.1), randomGraph(rng, 8, 3, 0.6, 0.1)
	dst := new(Graph)
	for _, c := range []struct {
		g     *Graph
		verts []int
	}{
		{big, []int{29, 3, 17, 4, 0, 12, 8, 21, 5}},
		{small, []int{6, 1, 3}},
		{big, []int{2, 9}},
	} {
		mustPanic(t, "duplicate vertex", func() { c.g.InducedInto(dst, []int{c.verts[0], c.verts[0]}) })
		c.g.InducedInto(dst, c.verts)
		if got, want := dst.String(), c.g.Induced(c.verts).String(); got != want {
			t.Fatalf("InducedInto %v:\n%s\nInduced:\n%s", c.verts, got, want)
		}
		if err := dst.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, e := range dst.entryStore[len(dst.entryStore):cap(dst.entryStore)] {
			if e.m != nil {
				t.Fatalf("after inducing %v, a spare entry still holds a matrix", c.verts)
			}
		}
		for _, e := range dst.spill[len(dst.spill):cap(dst.spill)] {
			if e.m != nil {
				t.Fatalf("after inducing %v, a spare spill entry still holds a matrix", c.verts)
			}
		}
	}
	// The lists above are out of order, so the rows are ordered by
	// sortRows; once dst has grown, that allocates nothing either.
	verts := []int{29, 3, 17, 4, 0, 12, 8, 21, 5}
	big.InducedInto(dst, verts)
	if allocs := testing.AllocsPerRun(20, func() { big.InducedInto(dst, verts) }); allocs != 0 {
		t.Fatalf("a steady-state InducedInto allocates %.1f times, want 0", allocs)
	}
}

// inducedRows builds the rows of g.Induced(verts) the way InducedInto
// built them before sortRows: each row in g's row order, tombstones
// skipped, then sorted by new index.
func inducedRows(g *Graph, verts []int) [][]entry {
	pos := make(map[int]int, len(verts))
	for i, u := range verts {
		pos[u] = i
	}
	rows := make([][]entry, len(verts))
	for i, u := range verts {
		for _, e := range g.rows[u].es {
			if j, ok := pos[e.v]; ok && e.m != nil {
				rows[i] = append(rows[i], entry{j, e.m})
			}
		}
		slices.SortFunc(rows[i], byNeighbor)
	}
	return rows
}

// dfsOrder lists the vertices of root's component in depth-first
// preorder from root, the way decomp lists a block: anchor first, the
// rest in an order unrelated to their ids.
func dfsOrder(g *Graph, root int) []int {
	seen := map[int]bool{root: true}
	order, stack := []int{root}, []int{root}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		next := -1
		for _, v := range g.Neighbors(u) {
			if !seen[v] {
				next = v
				break
			}
		}
		if next < 0 {
			stack = stack[:len(stack)-1]
			continue
		}
		seen[next] = true
		order = append(order, next)
		stack = append(stack, next)
	}
	return order
}

// TestInducedIntoOrdersRows: on random graphs whose rows carry
// tombstones and unsorted tails, and on TailGraph, under random vertex
// subsets in random order and under depth-first orders, every row
// InducedInto builds holds the same neighbors, in the same order, with
// the same matrix pointers, as the sorted reference.
func TestInducedIntoOrdersRows(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	dst := new(Graph)
	untidy := 0
	check := func(g *Graph, verts []int) {
		t.Helper()
		g.InducedInto(dst, verts)
		want := inducedRows(g, verts)
		for i, r := range dst.rows {
			if r.sorted != len(r.es) || r.dead != 0 || !slices.Equal(r.es, want[i]) {
				t.Fatalf("inducing %v: row %d is %v (sorted %d, dead %d), want %v", verts, i, r.es, r.sorted, r.dead, want[i])
			}
		}
		if err := dst.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	graphs := []*Graph{TailGraph(t)}
	for range 30 {
		n := 20 + rng.Intn(30)
		g := randomGraph(rng, n, 2, 0.3+0.5*rng.Float64(), 0)
		// Removals far from a row's end leave tombstones, inserts far from
		// it land in the tail.
		for range n {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			if g.HasEdge(u, v) {
				g.RemoveEdge(u, v)
			} else {
				g.SetEdgeCost(u, v, cost.NewMatrixFrom([][]cost.Cost{{1, 0}, {0, cost.Cost(rng.Intn(5))}}))
			}
		}
		graphs = append(graphs, g)
	}
	for _, g := range graphs {
		for u := range g.rows {
			if r := &g.rows[u]; r.dead > 0 || r.sorted < len(r.es) {
				untidy++
			}
		}
		alive := g.Vertices()
		for range 10 {
			rng.Shuffle(len(alive), func(i, j int) { alive[i], alive[j] = alive[j], alive[i] })
			check(g, alive[:1+rng.Intn(len(alive))])
			check(g, dfsOrder(g, alive[0]))
		}
	}
	if untidy == 0 {
		t.Fatal("no row had a tombstone or a tail: the rows InducedInto walks were all tidy")
	}
	t.Logf("%d untidy rows", untidy)
}

// HasEdge reports whether the edge (u, v) is present.
func (g *Graph) HasEdge(u, v int) bool { return g.rows[u].find(v) >= 0 }
