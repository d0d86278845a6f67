package gcn

import (
	"pbqprl/internal/cost"
	"pbqprl/internal/tensor"
)

// View is the graph a GCN embeds: the uncolored remainder of a PBQP
// problem in reduced form, as a window onto an edge table. Active
// vertex v is table vertex off+v, and its neighbors are the table's
// that are ≥ off, in table order; its edge matrices are the table's
// kernels. A View is a small value: copying one copies no vector.
type View struct {
	tbl    *EdgeTable
	off, m int
	vecs   []cost.Vector // the active vertices' cost vectors
	frozen bool          // Freeze's: Infer leaves the table's slots alone
}

// NewView returns the live window of tbl from off on, whose active
// vertices carry the m-color cost vectors vecs. It reads the vectors in
// place, so a change to one is seen by the next pass over the view, and
// Infer keeps its per-vertex memo in the table's slots: like the game
// it belongs to, a live view's table is one goroutine's at a time.
func NewView(tbl *EdgeTable, off, m int, vecs []cost.Vector) View {
	return View{tbl: tbl, off: off, m: m, vecs: vecs}
}

// Freeze returns an immutable copy of v, what a replay buffer holds: its
// own copy of the cost vectors, in one allocation, over v's table. The
// table's edges and kernels are immutable and a frozen view never
// touches the slots, so frozen views of a table may be read on any
// number of goroutines while one plays on the table's live window.
func (v View) Freeze() View {
	flat := make(cost.Vector, 0, len(v.vecs)*v.m)
	vecs := make([]cost.Vector, len(v.vecs))
	for i, vec := range v.vecs {
		flat = append(flat, vec...)
		vecs[i] = flat[len(flat)-len(vec) : len(flat) : len(flat)]
	}
	v.vecs, v.frozen = vecs, true
	return v
}

// Frozen reports whether v came from Freeze.
func (v View) Frozen() bool { return v.frozen }

// N returns the number of active vertices, addressed as [0, N).
func (v View) N() int { return len(v.vecs) }

// M returns the color count.
func (v View) M() int { return v.m }

// Vec returns active vertex i's current cost vector.
func (v View) Vec(i int) cost.Vector { return v.vecs[i] }

// EdgeTable returns the table and the window's offset.
func (v View) EdgeTable() (tbl *EdgeTable, off int) { return v.tbl, v.off }

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
			return t.Kern[e].mat
		}
	}
	return nil
}
