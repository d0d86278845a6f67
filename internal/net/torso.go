package net

import (
	"math"

	"pbqprl/internal/nn"
	"pbqprl/internal/tensor"
)

// torso is the network after the pooling: an input layer (dense, batch
// norm, ReLU), the residual blocks, and the two heads — the policy's
// dense layer, whose outputs are the logits, and the value's dense
// layer followed by tanh.
type torso struct {
	in     *nn.Dense
	inBN   *nn.BatchNorm
	blocks []block
	policy *nn.Dense
	value  *nn.Dense
}

// block is one residual block: dense → batch norm → ReLU → dense →
// batch norm, plus the skip, then ReLU.
type block struct {
	d1, d2   *nn.Dense
	bn1, bn2 *nn.BatchNorm
}

// acts holds one pass through the torso: its input, the input of every
// layer as backward reads it, the heads' outputs, and the gradient
// buffers backward reuses. Heads runs on the net's own acts and the
// inference engine on another, so an evaluation leaves alone what
// HeadsBackward reads.
type acts struct {
	x         tensor.Vec   // the pooled features, 2m+2
	lin, norm tensor.Vec   // the input layer's dense and batch-norm outputs
	h         []tensor.Vec // h[0] = ReLU(norm); h[k+1] is block k's output
	blocks    []blockActs
	logits    tensor.Vec
	vlin      tensor.Vec // the value layer's dense output, length 1
	value     float64

	dA, dB, dC tensor.Vec // hidden-width gradients
	dv         tensor.Vec // dL/dvlin, length 1
	dx         tensor.Vec // dL/dx
}

// blockActs is one block's share of an acts.
type blockActs struct {
	lin1, norm1, relu1, lin2 tensor.Vec
	sum                      tensor.Vec // second batch norm's output plus the skip
}

// newActs returns the buffers of a pass through a torso with in inputs,
// hidden-wide blocks and m colors.
func newActs(in, hidden, blocks, m int) acts {
	vec := tensor.NewVec
	a := acts{
		x: vec(in), lin: vec(hidden), norm: vec(hidden), h: []tensor.Vec{vec(hidden)},
		logits: vec(m), vlin: vec(1),
		dA: vec(hidden), dB: vec(hidden), dC: vec(hidden), dv: vec(1), dx: vec(in),
	}
	for k := 0; k < blocks; k++ {
		a.blocks = append(a.blocks, blockActs{
			lin1: vec(hidden), norm1: vec(hidden), relu1: vec(hidden), lin2: vec(hidden), sum: vec(hidden),
		})
		a.h = append(a.h, vec(hidden))
	}
	return a
}

// forward runs the torso and both heads on a.x, leaving the logits and
// the value in a. A training pass (train) moves the batch-norm
// statistics.
//
// EvaluateInto runs it per evaluation: TestEvaluateIntoAllocFree holds it to no allocation.
func (t *torso) forward(a *acts, train bool) {
	t.in.Forward(a.lin, a.x)
	t.inBN.Forward(a.norm, a.lin, train)
	nn.ReLU(a.h[0], a.norm)
	for k, b := range t.blocks {
		ba, h := &a.blocks[k], a.h[k]
		b.d1.Forward(ba.lin1, h)
		b.bn1.Forward(ba.norm1, ba.lin1, train)
		nn.ReLU(ba.relu1, ba.norm1)
		b.d2.Forward(ba.lin2, ba.relu1)
		b.bn2.Forward(ba.sum, ba.lin2, train)
		ba.sum.AddInPlace(h)
		nn.ReLU(a.h[k+1], ba.sum)
	}
	out := a.h[len(t.blocks)]
	t.policy.Forward(a.logits, out)
	t.value.Forward(a.vlin, out)
	a.value = math.Tanh(a.vlin[0])
}

// backward takes dL/dlogits and dL/dvalue for the pass forward last ran
// on a, accumulates every layer's parameter gradients, and returns
// dL/dx, which aliases a.
func (t *torso) backward(a *acts, dLogits tensor.Vec, dValue float64) tensor.Vec {
	out := a.h[len(t.blocks)]
	t.policy.Backward(a.dA, out, dLogits)
	a.dv[0] = dValue * (1 - a.value*a.value)
	t.value.Backward(a.dB, out, a.dv)
	a.dA.AddInPlace(a.dB)
	// dA carries dL/d(block output) down the blocks; dB keeps the
	// skip's share while dC goes through the body
	for k := len(t.blocks) - 1; k >= 0; k-- {
		b, ba := t.blocks[k], &a.blocks[k]
		nn.ReLUBackward(a.dB, ba.sum, a.dA)
		b.bn2.Backward(a.dA, ba.lin2, a.dB)
		b.d2.Backward(a.dC, ba.relu1, a.dA)
		nn.ReLUBackward(a.dC, ba.norm1, a.dC)
		b.bn1.Backward(a.dC, ba.lin1, a.dC)
		b.d1.Backward(a.dA, a.h[k], a.dC)
		a.dA.AddInPlace(a.dB)
	}
	nn.ReLUBackward(a.dA, a.norm, a.dA)
	t.inBN.Backward(a.dA, a.lin, a.dA)
	t.in.Backward(a.dx, a.x, a.dA)
	return a.dx
}

// bodyParams returns the input layer's and the blocks' parameters, in
// pass order.
func (t *torso) bodyParams() []*nn.Param {
	ps := append(t.in.Params(), t.inBN.Params()...)
	for _, b := range t.blocks {
		ps = append(ps, b.d1.Params()...)
		ps = append(ps, b.bn1.Params()...)
		ps = append(ps, b.d2.Params()...)
		ps = append(ps, b.bn2.Params()...)
	}
	return ps
}

// params returns every trainable parameter: the body's, then the
// policy's, then the value's.
func (t *torso) params() []*nn.Param {
	return append(append(t.bodyParams(), t.policy.Params()...), t.value.Params()...)
}

// tensors returns, in checkpoint order, the body's weights, the
// batch-norm statistics, then the policy's and the value's weights.
func (t *torso) tensors() []tensor.Vec {
	var ts []tensor.Vec
	for _, p := range t.bodyParams() {
		ts = append(ts, p.W)
	}
	ts = append(ts, t.inBN.State()...)
	for _, b := range t.blocks {
		ts = append(ts, b.bn1.State()...)
		ts = append(ts, b.bn2.State()...)
	}
	for _, p := range append(t.policy.Params(), t.value.Params()...) {
		ts = append(ts, p.W)
	}
	return ts
}
