package gcn

import "pbqprl/internal/tensor"

// TapeRows returns the most recent Forward's rows of layer l (0 = h⁰),
// aliasing the tape.
func (g *GCN) TapeRows(l int) []tensor.Vec { return g.plane(g.tape.hs, l) }

// TapeMsgs returns the most recent Forward's messages into layer l+1,
// aliasing the tape.
func (g *GCN) TapeMsgs(l int) []tensor.Vec { return g.plane(g.tape.msgs, l) }

func (g *GCN) plane(buf tensor.Vec, l int) []tensor.Vec {
	n, m := g.tape.n, g.m
	rows := make([]tensor.Vec, n)
	for v := range rows {
		rows[v] = buf[(l*n+v)*m : (l*n+v+1)*m]
	}
	return rows
}

// TapeKinds counts, by kernel kind (zero, diagonal, binary, sparse,
// dense), the edges inside the window of the most recent Forward.
func (g *GCN) TapeKinds() (kinds [5]int) {
	tp := &g.tape
	for v := 0; v < tp.n; v++ {
		for lo, hi := tp.tbl.From(tp.off+v, tp.off); lo < hi; lo++ {
			kinds[tp.tbl.packed[lo].kind]++
		}
	}
	return kinds
}

// BuiltByAddEdge reports whether every matrix of t has its packed form
// beside it, the rule edges holds a table to.
func (t *EdgeTable) BuiltByAddEdge() bool {
	if len(t.packed) != len(t.Mat) || len(t.Nbr) != len(t.Mat) {
		return false
	}
	for e, pk := range t.packed {
		if pk == nil || pk.mat != t.Mat[e] {
			return false
		}
	}
	return true
}
