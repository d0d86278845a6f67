package gcn

import (
	"pbqprl/internal/cost"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/tensor"
)

// GraphView adapts a pbqp.Graph (its alive vertices, compacted to
// [0, N)) to the View interface: a window over the whole of an edge
// table of its own, built, transformed and packed once.
type GraphView struct {
	g   *pbqp.Graph
	ids []int // active index -> graph vertex
	tbl EdgeTable
}

// NewGraphView builds a View over the alive vertices of g. The view
// reads g's cost vectors lazily, so vector mutations are visible, but
// structural changes (edge or vertex removal) are not.
func NewGraphView(g *pbqp.Graph) *GraphView {
	ids := g.Vertices()
	pos := make(map[int]int, len(ids)) // graph vertex -> active index
	for i, u := range ids {
		pos[u] = i
	}
	v := &GraphView{g: g, ids: ids}
	v.tbl.Start = make([]int32, 1, len(ids)+1)
	for _, u := range ids {
		for _, w := range g.Neighbors(u) {
			v.tbl.AddEdge(pos[w], TransformMatrix(g.EdgeCost(u, w)))
		}
		v.tbl.Start = append(v.tbl.Start, int32(len(v.tbl.Nbr)))
	}
	return v
}

func (v *GraphView) N() int                       { return len(v.ids) }
func (v *GraphView) M() int                       { return v.g.M() }
func (v *GraphView) Vec(i int) cost.Vector        { return v.g.VertexCost(v.ids[i]) }
func (v *GraphView) EdgeTable() (*EdgeTable, int) { return &v.tbl, 0 }

// WindowNbrs returns, window-relative, table vertex u's neighbors at or
// after off, for encoders and tests (it allocates).
func (t *EdgeTable) WindowNbrs(u, off int) (nbrs []int) {
	for lo, hi := t.From(u, off); lo < hi; lo++ {
		nbrs = append(nbrs, int(t.Nbr[lo])-off)
	}
	return nbrs
}

// MatOf returns the matrix of the edge from table vertex u to w, or nil.
func (t *EdgeTable) MatOf(u, w int) *tensor.Mat {
	for e := t.Start[u]; e < t.Start[u+1]; e++ {
		if int(t.Nbr[e]) == w {
			return t.Mat[e]
		}
	}
	return nil
}

// FrozenView is an immutable View, what a replay buffer holds: its
// own copy of a window's cost vectors, in one allocation, over the
// immutable slices of the table it was taken from — a game's, or a
// decoded sample's own small one. Its table takes no slots.
type FrozenView struct {
	tbl    EdgeTable
	off, m int
	vecs   cost.Vector // the window's vectors back to back
}

// NewFrozenView freezes the window of tbl from off on: it copies the
// window's m-color cost vectors, vecs, and keeps tbl's slices.
func NewFrozenView(tbl *EdgeTable, off, m int, vecs []cost.Vector) *FrozenView {
	v := &FrozenView{off: off, m: m, vecs: make(cost.Vector, 0, len(vecs)*m)}
	v.tbl = EdgeTable{Start: tbl.Start, Nbr: tbl.Nbr, Mat: tbl.Mat, packed: tbl.packed, frozen: true}
	for _, vec := range vecs {
		v.vecs = append(v.vecs, vec...)
	}
	return v
}

func (v *FrozenView) N() int                       { return len(v.tbl.Start) - 1 - v.off }
func (v *FrozenView) M() int                       { return v.m }
func (v *FrozenView) Vec(i int) cost.Vector        { return v.vecs[i*v.m : (i+1)*v.m : (i+1)*v.m] }
func (v *FrozenView) EdgeTable() (*EdgeTable, int) { return &v.tbl, v.off }
