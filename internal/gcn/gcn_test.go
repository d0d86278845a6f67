package gcn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"pbqprl/internal/cost"
	"pbqprl/internal/nn"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/randgraph"
	"pbqprl/internal/tensor"
)

func testView(t *testing.T, seed int64, n, m int) View {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := randgraph.ErdosRenyi(rng, randgraph.Config{N: n, M: m, PEdge: 0.5, PInf: 0.1})
	return graphView(g)
}

// graphView is a window over the whole of an edge table built, packed
// and transformed from g's alive vertices (compacted to [0, N)), as
// game.New builds a game's, and reading g's cost vectors in place.
func graphView(g *pbqp.Graph) View {
	ids := g.Vertices()
	pos := make(map[int]int, len(ids)) // graph vertex -> active index
	for i, u := range ids {
		pos[u] = i
	}
	tbl := &EdgeTable{Start: make([]int32, 1, len(ids)+1)}
	vecs := make([]cost.Vector, len(ids))
	for i, u := range ids {
		vecs[i] = g.VertexCost(u)
		for _, w := range g.Neighbors(u) {
			tbl.AddEdge(pos[w], PackCost(g.EdgeCost(u, w)))
		}
		tbl.Start = append(tbl.Start, int32(len(tbl.Nbr)))
	}
	return NewView(tbl, 0, g.M(), vecs)
}

func TestFeaturize(t *testing.T) {
	f := Featurize(cost.Vector{0, 3, cost.Inf})
	if len(f) != 6 {
		t.Fatalf("len = %d", len(f))
	}
	if f[0] != 0 {
		t.Errorf("zero cost feature = %v", f[0])
	}
	if f[1] <= 0 || f[1] >= 1 {
		t.Errorf("finite cost feature = %v, want in (0,1)", f[1])
	}
	if f[2] != infFeature {
		t.Errorf("inf cost feature = %v", f[2])
	}
	if f[3] != 0 || f[4] != 0 || f[5] != 1 {
		t.Errorf("mask channel = %v", f[3:])
	}
}

func TestTransformMatrix(t *testing.T) {
	m := transformMatrix(cost.NewMatrixFrom([][]cost.Cost{{0, cost.Inf}, {1, 2}}))
	if m.At(0, 0) != 0 || m.At(0, 1) != infFeature {
		t.Errorf("transform = %v", m.W)
	}
	if m.At(1, 0) >= m.At(1, 1) {
		t.Error("transform not monotone in cost")
	}
}

func TestForwardShapeAndDeterminism(t *testing.T) {
	view := testView(t, 1, 8, 3)
	g := New(rand.New(rand.NewSource(2)), 3, 2)
	h1 := g.Forward(view)
	h2 := g.Forward(view)
	if len(h1) != 8 {
		t.Fatalf("returned %d vectors", len(h1))
	}
	for v := range h1 {
		if len(h1[v]) != 3 {
			t.Fatalf("vector %d has width %d", v, len(h1[v]))
		}
		for i := range h1[v] {
			if h1[v][i] != h2[v][i] {
				t.Fatal("Forward not deterministic")
			}
			if math.Abs(h1[v][i]) > 1 {
				t.Fatal("tanh output out of range")
			}
		}
	}
}

func TestEmbeddingDependsOnCosts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g1 := randgraph.ErdosRenyi(rng, randgraph.Config{N: 6, M: 3, PEdge: 0.5, PInf: 0.1})
	g2 := g1.Clone()
	g2.AddToVertexCost(0, cost.Vector{50, 0, 0})
	net := New(rand.New(rand.NewSource(4)), 3, 2)
	h1 := net.Forward(graphView(g1))
	h2 := net.Forward(graphView(g2))
	diff := 0.0
	for i := range h1[0] {
		diff += math.Abs(h1[0][i] - h2[0][i])
	}
	if diff == 0 {
		t.Error("embedding insensitive to vertex cost change")
	}
}

func TestMessagesPropagate(t *testing.T) {
	// with 2 layers, a cost change at vertex 0 must influence the
	// embedding of a vertex two hops away
	m := 3
	g1 := buildPath(4, m)
	g2 := buildPath(4, m)
	g2.AddToVertexCost(0, cost.Vector{40, 0, 0})
	net := New(rand.New(rand.NewSource(5)), m, 2)
	h1 := net.Forward(graphView(g1))
	h2 := net.Forward(graphView(g2))
	diff := 0.0
	for i := 0; i < m; i++ {
		diff += math.Abs(h1[2][i] - h2[2][i])
	}
	if diff == 0 {
		t.Error("two-hop influence missing")
	}
	// but with 2 layers, three hops away must be unreachable
	diff = 0.0
	for i := 0; i < m; i++ {
		diff += math.Abs(h1[3][i] - h2[3][i])
	}
	if diff != 0 {
		t.Error("three-hop influence present with 2 layers")
	}
}

// buildPath returns an n-vertex path whose edges cost 1 on the
// diagonal: every message carries its neighbor's row.
func buildPath(n, m int) *pbqp.Graph {
	g := pbqp.New(n, m)
	mat := cost.NewMatrix(m, m)
	for i := 0; i < m; i++ {
		mat.Set(i, i, 1)
	}
	for i := 0; i+1 < n; i++ {
		g.SetEdgeCost(i, i+1, mat)
	}
	return g
}

func TestGradientsNumerically(t *testing.T) {
	view := testView(t, 6, 5, 3)
	net := New(rand.New(rand.NewSource(7)), 3, 2)
	// loss = sum of squares of all final hidden entries
	loss := func() float64 {
		h := net.Forward(view)
		s := 0.0
		for _, hv := range h {
			for _, x := range hv {
				s += x * x
			}
		}
		return s
	}
	h := net.Forward(view)
	dH := make([]tensor.Vec, len(h))
	for v := range h {
		dH[v] = make(tensor.Vec, len(h[v]))
		for i := range h[v] {
			dH[v][i] = 2 * h[v][i]
		}
	}
	for _, p := range net.Params() {
		p.ZeroGrad()
	}
	net.Backward(dH)
	const hstep = 1e-5
	for _, p := range net.Params() {
		for i := range p.W {
			orig := p.W[i]
			p.W[i] = orig + hstep
			lp := loss()
			p.W[i] = orig - hstep
			lm := loss()
			p.W[i] = orig
			want := (lp - lm) / (2 * hstep)
			if math.Abs(want-p.G[i]) > 1e-4*(1+math.Abs(want)) {
				t.Fatalf("%s[%d]: analytic %.6g, numeric %.6g", p.Name, i, p.G[i], want)
			}
		}
	}
}

func TestGradientsOnDisconnectedGraph(t *testing.T) {
	// no edges: only W_in/b_in and the self paths receive gradient
	rng := rand.New(rand.NewSource(8))
	g := randgraph.ErdosRenyi(rng, randgraph.Config{N: 4, M: 2, PEdge: 0, PInf: 0.1})
	view := graphView(g)
	net := New(rand.New(rand.NewSource(9)), 2, 1)
	h := net.Forward(view)
	dH := make([]tensor.Vec, len(h))
	for v := range h {
		dH[v] = make(tensor.Vec, len(h[v]))
		for i := range h[v] {
			dH[v][i] = 1
		}
	}
	net.Backward(dH) // must not panic
	gotGrad := false
	for _, p := range net.Params() {
		for _, gv := range p.G {
			if gv != 0 {
				gotGrad = true
			}
		}
	}
	if !gotGrad {
		t.Error("no gradients at all")
	}
}

func TestParamsCount(t *testing.T) {
	net := New(rand.New(rand.NewSource(10)), 4, 3)
	// win, bin + 3 layers × (wself, wnbr, b)
	if got := len(net.Params()); got != 2+3*3 {
		t.Errorf("param tensors = %d, want 11", got)
	}
	if net.M() != 4 || net.Layers() != 3 {
		t.Error("accessors wrong")
	}
}

func TestCheckpointThroughNNHelpers(t *testing.T) {
	a := New(rand.New(rand.NewSource(11)), 3, 2)
	b := New(rand.New(rand.NewSource(12)), 3, 2)
	var tensors []tensor.Vec
	for _, p := range a.Params() {
		tensors = append(tensors, p.W)
	}
	var buf bytes.Buffer
	if err := nn.SaveTensors(&buf, tensors); err != nil {
		t.Fatal(err)
	}
	var dst []tensor.Vec
	for _, p := range b.Params() {
		dst = append(dst, p.W)
	}
	if err := nn.LoadTensors(&buf, dst); err != nil {
		t.Fatal(err)
	}
	view := testView(t, 13, 6, 3)
	ha, hb := a.Forward(view), b.Forward(view)
	for v := range ha {
		for i := range ha[v] {
			if ha[v][i] != hb[v][i] {
				t.Fatal("loaded GCN differs")
			}
		}
	}
}
