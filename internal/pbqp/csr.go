package pbqp

// CSR is a compressed-sparse-row snapshot of a graph's alive vertices
// and edges: a read-only adjacency for traversal-heavy algorithms
// (connected components, block-cut trees). The graph's own rows are
// already ordered slices, so what the snapshot buys is density: dense
// int32 indices in two flat arrays, with no tombstones, tails or
// matrix pointers between the neighbors, and only the alive vertices.
//
// Vertices are renumbered densely: CSR index i ∈ [0, Len()) maps to
// graph vertex ID(i), with IndexOf inverting the mapping. Neighbor
// lists are sorted ascending by CSR index, so every traversal order is
// deterministic. The snapshot is topology only — cost data stays in the
// graph, reached through ID — and does not observe later graph
// mutations to the edge set.
type CSR struct {
	m      int
	ids    []int32 // CSR index -> graph vertex id
	index  []int32 // graph vertex id -> CSR index, -1 for dead vertices
	rowPtr []int32 // rowPtr[i]..rowPtr[i+1] spans row i of colIdx
	colIdx []int32 // neighbor CSR indices, ascending within each row
}

// NewCSR snapshots g's alive subgraph.
func NewCSR(g *Graph) *CSR {
	n := g.AliveCount()
	c := &CSR{
		m:      g.M(),
		ids:    make([]int32, 0, n),
		index:  make([]int32, g.NumVertices()),
		rowPtr: make([]int32, n+1),
	}
	for u := range c.index {
		c.index[u] = -1
	}
	for u := 0; u < g.NumVertices(); u++ {
		if g.Alive(u) {
			c.index[u] = int32(len(c.ids))
			c.ids = append(c.ids, int32(u))
		}
	}
	total := 0
	for i, u := range c.ids {
		total += g.Degree(int(u))
		c.rowPtr[i+1] = int32(total)
	}
	c.colIdx = make([]int32, total)
	var scratch []entry
	for i, u := range c.ids {
		// Ascending ids renumber to ascending indices: the row stays sorted.
		row := c.colIdx[c.rowPtr[i]:c.rowPtr[i]:c.rowPtr[i+1]]
		for _, e := range g.rows[u].ordered(&scratch) {
			row = append(row, c.index[e.v])
		}
	}
	return c
}

// Len returns the number of snapshotted (alive) vertices.
func (c *CSR) Len() int { return len(c.ids) }

// M returns the color count of the snapshotted graph.
func (c *CSR) M() int { return c.m }

// ID maps a CSR index to its graph vertex id.
func (c *CSR) ID(i int) int { return int(c.ids[i]) }

// IndexOf maps a graph vertex id to its CSR index, -1 if the vertex
// was dead at snapshot time.
func (c *CSR) IndexOf(u int) int { return int(c.index[u]) }

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
