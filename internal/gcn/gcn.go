// Package gcn implements the paper's PBQP graph embedding (Section
// III-D): a message-passing graph convolutional network whose messages
// are multiplied by the edge cost matrices, so that the embedding
// reflects the actual cost interaction between neighboring vertices,
// not just adjacency.
//
// Hidden vectors have width m (the color count), exactly as in the
// paper, so that an m×m cost matrix can multiply a hidden vector.
// Infinite costs cannot flow through a network directly: Featurize maps
// a cost vector to a 2m-feature input (a squashed finite channel plus a
// 0/1 infinity mask) and TransformMatrix maps cost matrix entries to
// bounded floats with a distinguished value for infinity.
//
// Layer update for vertex v with neighbors N(v):
//
//	h⁰_v      = tanh(W_in·φ(v) + b_in)
//	msg_v     = mean_{u ∈ N(v)} M̃_vu · hˡ_u
//	hˡ⁺¹_v    = tanh(W_self·hˡ_v + W_nbr·msg_v + b)
//
// where M̃_vu is the transformed cost matrix oriented (rows = v's color).
//
// Each transformed matrix is packed once, where it enters an edge table
// (EdgeTable.AddEdge, infer.go). The trainable pass (ForwardTape,
// Backprop and Accumulate, here, on a Tape the caller owns; Forward
// and Backward are those three on the GCN's own) and the read-only one
// (Infer, infer.go, on a Scratch's memo) resolve a view's edges through
// one function and compute a vertex's layer update with one more,
// bit-equal to reference_test.go's dense pass.
package gcn

import (
	"math"
	"math/rand"

	"pbqprl/internal/cost"
	"pbqprl/internal/nn"
	"pbqprl/internal/tensor"
)

const (
	// infFeature is the numeric stand-in for an infinite cost after
	// transformation. Finite costs squash into [0, 1); infinity maps
	// well above them so the network can separate the regimes.
	infFeature = 2.0
	// costScale divides log1p(cost) in the squashing transform.
	costScale = 4.0
)

// squash maps one cost entry to a bounded float feature. Finite costs
// use a sign-preserving logarithmic compression (register-allocation
// PBQP graphs contain negative coalescing-hint costs).
func squash(c cost.Cost) float64 {
	if c.IsInf() {
		return infFeature
	}
	f := float64(c)
	if f < 0 {
		return -math.Log1p(-f) / costScale
	}
	return math.Log1p(f) / costScale
}

// TransformMatrix converts a cost matrix to the numeric form the GCN
// multiplies messages by.
func TransformMatrix(m *cost.Matrix) *tensor.Mat {
	t := tensor.NewMat(m.Rows, m.Cols)
	for i, c := range m.Data {
		t.W[i] = squash(c)
	}
	return t
}

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

// GCN is the trainable graph embedding network. Forward and Backward
// run on a tape of its own, which makes them single-goroutine;
// ForwardTape, Backprop and Accumulate take the tape from the caller
// and share the GCN as their doc comments say.
type GCN struct {
	m      int
	layers int
	win    *nn.Param // m × 2m
	bin    *nn.Param // m
	wself  []*nn.Param
	wnbr   []*nn.Param
	b      []*nn.Param

	tape Tape
}

// Tape is one sample's trainable pass, in flat buffers reused from
// sample to sample: ForwardTape fills the activations, Backprop the
// pre-activation gradients, Accumulate reads both. Vertex v's row of
// layer l is hs[(l·n+v)·m:][:m], its message into layer l+1
// msgs[(l·n+v)·m:][:m]. The zero value is ready, and a tape is one
// goroutine's at a time.
type Tape struct {
	tbl    *EdgeTable   // the view's edges, as edges resolved them ...
	off, n int          // ... and its window [off, off+n)
	feats  tensor.Vec   // n·2m: φ(v)
	nz     []int32      // h0Into's index buffer
	hs     tensor.Vec   // (layers+1)·n·m
	msgs   tensor.Vec   // layers·n·m
	rows   []tensor.Vec // a header per row of hs, plane after plane
	dpre   tensor.Vec   // (layers+1)·n·m: dL/d(pre-activation) of hs, row for row
	grad   tensor.Vec   // Backprop's: two n·m gradient planes, then dmsg and one product
}

// Rows returns the final hidden vectors of the most recent ForwardTape,
// one length-m vector per vertex, aliasing the tape.
func (tp *Tape) Rows() []tensor.Vec { return tp.rows[len(tp.rows)-tp.n:] }

// New returns a GCN with the given number of message-passing layers for
// m-color problems, Xavier-initialized from rng.
func New(rng *rand.Rand, m, layers int) *GCN {
	g := &GCN{m: m, layers: layers}
	g.win = nn.NewXavier(rng, "gcn.win", m, 2*m)
	g.bin = nn.NewParam("gcn.bin", m)
	for l := 0; l < layers; l++ {
		g.wself = append(g.wself, nn.NewXavier(rng, "gcn.wself", m, m))
		g.wnbr = append(g.wnbr, nn.NewXavier(rng, "gcn.wnbr", m, m))
		g.b = append(g.b, nn.NewParam("gcn.b", m))
	}
	return g
}

// M returns the color count the network was built for.
func (g *GCN) M() int { return g.m }

// Layers returns the number of message-passing layers.
func (g *GCN) Layers() int { return g.layers }

// Params returns all trainable parameters.
func (g *GCN) Params() []*nn.Param {
	ps := []*nn.Param{g.win, g.bin}
	for l := 0; l < g.layers; l++ {
		ps = append(ps, g.wself[l], g.wnbr[l], g.b[l])
	}
	return ps
}

// Forward embeds every active vertex of view on the GCN's own tape,
// which Backward reads until the next Forward, and returns a copy the
// caller owns of the final hidden vectors (one length-m vector per
// vertex).
//
// Its result is its one allocation (TestTapeSteadyStateAllocations).
func (g *GCN) Forward(view View) []tensor.Vec {
	g.ForwardTape(&g.tape, view)
	n, m := g.tape.n, g.m
	// the caller-owned result: rows of two Forwards never alias
	out := make(tensor.Vec, n*m)
	copy(out, g.tape.hs[g.layers*n*m:])
	rows := make([]tensor.Vec, n)
	for v := range rows {
		rows[v] = out[v*m : (v+1)*m : (v+1)*m]
	}
	return rows
}

// ForwardTape embeds every active vertex of view on tp. It reads the
// weights and the view and writes only tp, so any number of goroutines
// may run it over one GCN at once, each on a tape of its own, as long as
// nothing writes the weights meanwhile.
//
// Once tp has grown it allocates nothing (TestTapeSteadyStateAllocations).
func (g *GCN) ForwardTape(tp *Tape, view View) {
	n, m := view.N(), g.m
	tbl, off := edges(view)
	tp.tbl, tp.off, tp.n = tbl, off, n
	tp.feats, tp.hs, tp.msgs = grow(tp.feats, n*2*m), grow(tp.hs, (g.layers+1)*n*m), grow(tp.msgs, g.layers*n*m)
	tp.rows = tp.rows[:0]
	for r := 0; r < (g.layers+1)*n; r++ {
		// header growth on first sight of a larger view; steady state reuses the slice
		tp.rows = append(tp.rows, tp.hs[r*m:(r+1)*m:(r+1)*m])
	}
	for v := 0; v < n; v++ {
		tp.nz = g.h0Into(tp.rows[v], tp.feats[v*2*m:(v+1)*2*m], tp.nz[:0], view.Vec(v))
	}
	for l := 0; l < g.layers; l++ {
		in, out := tp.rows[l*n:(l+1)*n], tp.rows[(l+1)*n:(l+2)*n]
		for v := 0; v < n; v++ {
			g.update(out[v], tp.msgs[(l*n+v)*m:(l*n+v+1)*m], l, tbl, off, v, in)
		}
	}
}

// update is both passes' layer update: it writes into o layer l's row
// for active vertex v of the window of tbl at off, given the layer's
// input rows in. v's edges fold into msg in neighbor order, the mean
// scales it (an edgeless vertex keeps an unscaled zero message), and
// o = tanh(W_self·h + W_nbr·msg + b) folds in ascending j, combined as
// (self + nbr) + b like the dense pass's MulVec and AddInPlace calls.
func (g *GCN) update(o, msg tensor.Vec, l int, tbl *EdgeTable, off, v int, in []tensor.Vec) {
	m := g.m
	lo, hi := tbl.From(off+v, off)
	msg.Zero()
	for e := lo; e < hi; e++ {
		checkShape(tbl.Mat[e], m)
		tbl.packed[e].addMulVec(msg, in[int(tbl.Nbr[e])-off])
	}
	if hi > lo {
		msg.Scale(1 / float64(hi-lo))
	}
	h, wself, wnbr, b := in[v], g.wself[l].W, g.wnbr[l].W, g.b[l].W
	for i := range o {
		ws, wn := wself[i*m:(i+1)*m], wnbr[i*m:(i+1)*m]
		var s, t float64
		for j, wsj := range ws {
			s += wsj * h[j]
			t += wn[j] * msg[j]
		}
		o[i] = math.Tanh(s + t + b[i])
	}
}

// Backward accumulates parameter gradients given dL/dH for the hidden
// vectors of the most recent Forward, whose view it is handed again:
// Backprop then Accumulate, on the GCN's own tape. It allocates
// nothing.
//
// It allocates nothing (TestTapeSteadyStateAllocations).
func (g *GCN) Backward(_ View, dH []tensor.Vec) {
	g.Backprop(&g.tape, dH)
	g.Accumulate(&g.tape)
}

// Backprop is the activation half of the backward pass: given dL/dH for
// the rows ForwardTape left on tp, it writes the gradient of every
// (layer, vertex) pre-activation to tp. Like ForwardTape it reads the
// weights and writes only tp — no Param's W or G — so it shares a GCN
// between goroutines on the same terms. It allocates nothing.
//
// TestTapeSteadyStateAllocations pins that.
func (g *GCN) Backprop(tp *Tape, dH []tensor.Vec) {
	m, n, tbl, off := g.m, tp.n, tp.tbl, tp.off
	tp.dpre, tp.grad = grow(tp.dpre, (g.layers+1)*n*m), grow(tp.grad, (2*n+2)*m)
	grad, next, rest := tp.grad[:n*m], tp.grad[n*m:2*n*m], tp.grad[2*n*m:]
	dmsg, prod := rest[:m], rest[m:]
	for v := 0; v < n; v++ {
		copy(grad[v*m:(v+1)*m], dH[v])
	}
	for l := g.layers - 1; l >= 0; l-- {
		out, dpres := tp.hs[(l+1)*n*m:(l+2)*n*m], tp.dpre[(l+1)*n*m:(l+2)*n*m]
		wself, wnbr := tensor.Mat{R: m, C: m, W: g.wself[l].W}, tensor.Mat{R: m, C: m, W: g.wnbr[l].W}
		next.Zero()
		for v := 0; v < n; v++ {
			dpre := dpres[v*m : (v+1)*m]
			for i, o := range out[v*m : (v+1)*m] {
				dpre[i] = grad[v*m+i] * (1 - o*o)
			}
			wself.MulTVecInto(prod, dpre)
			next[v*m : (v+1)*m].AddInPlace(prod)
			wnbr.MulTVecInto(dmsg, dpre)
			lo, hi := tbl.From(off+v, off)
			scale := 1 / float64(hi-lo)
			for e := lo; e < hi; e++ {
				// d msg_v / d h_u = scale · M̃_vu, so the gradient flows back
				// through M̃_vuᵀ = M̃_uv: the reverse edge's kernel, folded into
				// zeros, is the dense MulVec (infer.go, zero skipping)
				u := int(tbl.Nbr[e])
				r := tbl.Start[u]
				for int(tbl.Nbr[r]) != off+v {
					r++
				}
				prod.Zero()
				tbl.packed[r].addMulVec(prod, dmsg)
				next[(u-off)*m:(u-off+1)*m].AddScaled(scale, prod)
			}
		}
		grad, next = next, grad
	}
	for i, h := range tp.hs[:n*m] {
		tp.dpre[i] = grad[i] * (1 - h*h)
	}
}

// Accumulate is the parameter half of the backward pass: it adds the
// rank-1 terms of the sample Backprop left on tp to every gradient
// matrix and bias, layer descending and vertex ascending. It reads tp
// and writes every Param's G, so a minibatch's tapes go through it one
// at a time, in sample order. It allocates nothing.
//
// TestTapeSteadyStateAllocations pins that.
func (g *GCN) Accumulate(tp *Tape) {
	m, n := g.m, tp.n
	for l := g.layers - 1; l >= 0; l-- {
		prev, dpres := tp.hs[l*n*m:(l+1)*n*m], tp.dpre[(l+1)*n*m:(l+2)*n*m]
		gwself, gwnbr := tensor.Mat{R: m, C: m, W: g.wself[l].G}, tensor.Mat{R: m, C: m, W: g.wnbr[l].G}
		for v := 0; v < n; v++ {
			dpre := dpres[v*m : (v+1)*m]
			gwself.AddOuter(1, dpre, prev[v*m:(v+1)*m])
			gwnbr.AddOuter(1, dpre, tp.msgs[(l*n+v)*m:(l*n+v+1)*m])
			g.b[l].G.AddInPlace(dpre)
		}
	}
	gwin := tensor.Mat{R: m, C: 2 * m, W: g.win.G}
	for v := 0; v < n; v++ {
		dpre := tp.dpre[v*m : (v+1)*m]
		gwin.AddOuter(1, dpre, tp.feats[v*2*m:(v+1)*2*m])
		g.bin.G.AddInPlace(dpre)
	}
}
