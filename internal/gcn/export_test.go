package gcn

import (
	"pbqprl/internal/cost"
	"pbqprl/internal/tensor"
)

// Featurize converts a cost vector to the 2m-feature GCN input: the
// squashed finite channel followed by the 0/1 infinity mask.
func Featurize(v cost.Vector) tensor.Vec {
	f := tensor.NewVec(2 * len(v))
	for i, c := range v {
		f[i] = squash(c)
		if c.IsInf() {
			f[len(v)+i] = 1
		}
	}
	return f
}

// M returns the color count the network was built for.
func (g *GCN) M() int { return g.m }

// Layers returns the number of message-passing layers.
func (g *GCN) Layers() int { return g.layers }

// Backward accumulates parameter gradients given dL/dH for the hidden
// vectors of the most recent Forward: Backprop then Accumulate on the
// GCN's own tape.
func (g *GCN) Backward(dH []tensor.Vec) {
	g.Backprop(&g.tape, dH)
	g.Accumulate(&g.tape)
}

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
			kinds[tp.tbl.Kern[lo].kind]++
		}
	}
	return kinds
}
