package pbqp

import (
	"math/rand"
	"testing"

	"pbqprl/internal/cost"
)

// randCSRGraph builds a random graph, optionally killing some vertices
// so the snapshot has to renumber around dead slots.
func randCSRGraph(t *testing.T, rng *rand.Rand, n, m int, pEdge float64, kill int) *Graph {
	t.Helper()
	g := New(n, m)
	for u := 0; u < n; u++ {
		vec := make(cost.Vector, m)
		for c := range vec {
			vec[c] = cost.Cost(rng.Intn(7))
		}
		g.SetVertexCost(u, vec)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() >= pEdge {
				continue
			}
			mat := cost.NewMatrix(m, m)
			mat.Set(rng.Intn(m), rng.Intn(m), cost.Cost(1+rng.Intn(5)))
			g.SetEdgeCost(u, v, mat)
		}
	}
	for i := 0; i < kill; i++ {
		g.RemoveVertex(rng.Intn(n))
	}
	return g
}

func TestCSRMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		g := randCSRGraph(t, rng, 2+rng.Intn(20), 1+rng.Intn(3), 0.3, rng.Intn(4))
		c := NewCSR(g)
		if c.Len() != g.AliveCount() {
			t.Fatalf("Len = %d, alive = %d", c.Len(), g.AliveCount())
		}
		if c.NumEdges() != g.NumEdges() {
			t.Fatalf("NumEdges = %d, graph has %d", c.NumEdges(), g.NumEdges())
		}
		for u := 0; u < g.NumVertices(); u++ {
			if !g.Alive(u) {
				if c.IndexOf(u) != -1 {
					t.Fatalf("dead vertex %d has CSR index %d", u, c.IndexOf(u))
				}
				continue
			}
			i := c.IndexOf(u)
			if i < 0 || c.ID(i) != u {
				t.Fatalf("vertex %d maps to CSR %d which maps back to %d", u, i, c.ID(i))
			}
			want := g.Neighbors(u)
			nbrs := c.Neighbors(i)
			if len(nbrs) != len(want) || c.Degree(i) != len(want) {
				t.Fatalf("vertex %d: CSR degree %d, graph degree %d", u, len(nbrs), len(want))
			}
			// Graph.Neighbors sorts by vertex id; CSR rows sort by CSR
			// index. Dense renumbering preserves relative order, so the
			// rows must agree element-wise after mapping back.
			for k, j := range nbrs {
				if c.ID(int(j)) != want[k] {
					t.Fatalf("vertex %d neighbor %d: CSR %d, graph %d", u, k, c.ID(int(j)), want[k])
				}
				if k > 0 && nbrs[k-1] >= j {
					t.Fatalf("vertex %d: row not strictly ascending", u)
				}
			}
		}
	}
}

func TestCSREmptyGraph(t *testing.T) {
	c := NewCSR(New(0, 2))
	if c.Len() != 0 || c.NumEdges() != 0 {
		t.Fatalf("empty graph snapshot: Len=%d NumEdges=%d", c.Len(), c.NumEdges())
	}
}

var csrSink int64

// TestCSRTraversalAllocFree pins the hot-path promise: once built, a
// full sweep over every neighbor row performs zero allocations.
func TestCSRTraversalAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randCSRGraph(t, rng, 200, 2, 0.05, 10)
	c := NewCSR(g)
	allocs := testing.AllocsPerRun(20, func() {
		var sum int64
		for i := 0; i < c.Len(); i++ {
			for _, j := range c.Neighbors(i) {
				sum += int64(j)
			}
		}
		csrSink = sum
	})
	if allocs != 0 {
		t.Fatalf("CSR traversal allocates %.1f times per sweep, want 0", allocs)
	}
}

// IndexOf maps a graph vertex id to its CSR index, -1 if the vertex
// was dead at snapshot time.
func (c *CSR) IndexOf(u int) int { return int(c.index[u]) }
