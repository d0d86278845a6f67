package pbqp

import "slices"

// CSR is a compressed-sparse-row snapshot of a graph's alive vertices
// and edges: a read-only adjacency for traversal-heavy algorithms
// (connected components, block-cut trees). The graph's own rows are
// already ordered slices, so what the snapshot buys is density: dense
// int32 indices in two flat arrays, with no tombstones, tails or
// matrix pointers between the neighbors, and only the alive vertices.
//
// Vertices are renumbered densely: CSR index i ∈ [0, Len()) maps to
// graph vertex ID(i), with the index array inverting it. Neighbor
// lists are sorted ascending by CSR index, so every traversal order is
// deterministic. The snapshot is topology only — cost data stays in the
// graph, reached through ID — and does not observe later graph
// mutations to the edge set.
type CSR struct {
	ids    []int32 // CSR index -> graph vertex id
	index  []int32 // graph vertex id -> CSR index, -1 for dead vertices
	rowPtr []int32 // rowPtr[i]..rowPtr[i+1] spans row i of colIdx
	colIdx []int32 // neighbor CSR indices, ascending within each row

	scratch []entry // where Snapshot orders a row with a tail or tombstones
}

// NewCSR snapshots g's alive subgraph.
func NewCSR(g *Graph) *CSR {
	c := new(CSR)
	c.Snapshot(g)
	return c
}

// Snapshot makes c the snapshot NewCSR(g) returns, rebuilding it in
// the arrays c already holds wherever they are large enough, so a CSR
// snapshotted again and again (decomp keeps one per pooled workspace)
// reaches a steady state that allocates nothing. Every view an earlier
// Neighbors returned is overwritten.
func (c *CSR) Snapshot(g *Graph) {
	n := g.AliveCount()
	c.ids = slices.Grow(c.ids[:0], n)
	c.index = slices.Grow(c.index[:0], g.NumVertices())[:g.NumVertices()]
	c.rowPtr = slices.Grow(c.rowPtr[:0], n+1)[:n+1]
	for u := range c.index {
		c.index[u] = -1
		if g.Alive(u) {
			c.index[u] = int32(len(c.ids))
			c.ids = append(c.ids, int32(u))
		}
	}
	total := 0
	c.rowPtr[0] = 0
	for i, u := range c.ids {
		total += g.Degree(int(u))
		c.rowPtr[i+1] = int32(total)
	}
	c.colIdx = slices.Grow(c.colIdx[:0], total)[:total]
	for i, u := range c.ids {
		// Ascending ids renumber to ascending indices: the row stays sorted.
		row := c.colIdx[c.rowPtr[i]:c.rowPtr[i]:c.rowPtr[i+1]]
		for _, e := range g.rows[u].ordered(&c.scratch) {
			row = append(row, c.index[e.v])
		}
	}
}

// Len returns the number of snapshotted (alive) vertices.
func (c *CSR) Len() int { return len(c.ids) }

// ID maps a CSR index to its graph vertex id.
func (c *CSR) ID(i int) int { return int(c.ids[i]) }

// Degree returns the number of neighbors of CSR vertex i.
func (c *CSR) Degree(i int) int { return int(c.rowPtr[i+1] - c.rowPtr[i]) }

// Neighbors returns the neighbor row of CSR vertex i, ascending. The
// slice is a view into shared storage: read-only, valid for the
// snapshot's lifetime, and allocation-free.
//
// TestCSRTraversalAllocFree pins that.
func (c *CSR) Neighbors(i int) []int32 {
	return c.colIdx[c.rowPtr[i]:c.rowPtr[i+1]]
}

// NumEdges returns the number of snapshotted undirected edges.
func (c *CSR) NumEdges() int { return len(c.colIdx) / 2 }
