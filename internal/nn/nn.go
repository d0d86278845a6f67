// Package nn holds the layers the network is built from — dense layers,
// an online batch-normalization variant and the ReLU nonlinearity — with
// softmax and cross-entropy, the Adam optimizer, and Xavier
// initialization.
//
// A layer keeps no activations. Forward writes its output into a
// caller's buffer; Backward(dx, x, dy) takes the input x Forward was
// given and dL/d(output) dy, accumulates dL/d(params) into the parameter
// gradients and writes dL/d(input) into dx. The caller owns every
// buffer, so one layer serves any number of passes whose activations
// live apart. Minibatch training accumulates gradients over samples and
// then takes one optimizer step, which is mathematically identical to
// batched backpropagation.
package nn

import (
	"math"
	"math/rand"

	"pbqprl/internal/tensor"
)

// Param is one trainable tensor with its gradient accumulator.
type Param struct {
	Name string
	W    tensor.Vec // weights (flattened)
	G    tensor.Vec // accumulated gradient, same shape
}

// NewParam allocates a named zero parameter of size n.
func NewParam(name string, n int) *Param {
	return &Param{Name: name, W: tensor.NewVec(n), G: tensor.NewVec(n)}
}

// NewXavier returns a named out×in weight matrix, Xavier-uniform
// initialized from rng: out·in draws, in row-major order.
func NewXavier(rng *rand.Rand, name string, out, in int) *Param {
	p := NewParam(name, out*in)
	bound := math.Sqrt(6.0 / float64(in+out))
	for i := range p.W {
		p.W[i] = (rng.Float64()*2 - 1) * bound
	}
	return p
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.G.Zero() }

// Dense is a fully connected layer y = W·x + b.
type Dense struct {
	In, Out int
	w, b    *Param
}

// NewDense returns a dense layer with Xavier-uniform initialized weights
// and zero biases.
func NewDense(rng *rand.Rand, in, out int) *Dense {
	return &Dense{In: in, Out: out, w: NewXavier(rng, "dense.w", out, in), b: NewParam("dense.b", out)}
}

// Forward writes W·x + b into y.
func (d *Dense) Forward(y, x tensor.Vec) {
	m := tensor.Mat{R: d.Out, C: d.In, W: d.w.W}
	m.MulVecInto(y, x)
	y.AddInPlace(d.b.W)
}

// Backward accumulates the gradients of W and b for input x and writes
// Wᵀ·dy into dx, which must not alias dy.
func (d *Dense) Backward(dx, x, dy tensor.Vec) {
	gw := tensor.Mat{R: d.Out, C: d.In, W: d.w.G}
	gw.AddOuter(1, dy, x)
	d.b.G.AddInPlace(dy)
	m := tensor.Mat{R: d.Out, C: d.In, W: d.w.W}
	m.MulTVecInto(dx, dy)
}

// Params returns the weight matrix and the bias.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

// ReLU writes the elementwise rectifier of x into y, which may alias x.
func ReLU(y, x tensor.Vec) {
	for i, v := range x {
		if v < 0 {
			y[i] = 0
		} else {
			y[i] = v
		}
	}
}

// ReLUBackward writes dy, zeroed wherever the input x was not positive,
// into dx, which may alias dy.
func ReLUBackward(dx, x, dy tensor.Vec) {
	for i, g := range dy {
		if x[i] <= 0 {
			g = 0
		}
		dx[i] = g
	}
}

// BatchNorm normalizes each feature with running mean/variance
// statistics and applies a learned affine transform. The statistics are
// updated online (exponential moving average over the sample stream)
// by training passes and frozen otherwise; the backward pass treats
// them as constants. This "online" variant replaces minibatch statistics
// because the network processes one sample at a time; it fills the same
// conditioning role as the paper's batch-normalization layers.
type BatchNorm struct {
	gamma, beta *Param
	mean, vari  tensor.Vec
	momentum    float64
	eps         float64
}

// NewBatchNorm returns a BatchNorm over dim features.
func NewBatchNorm(dim int) *BatchNorm {
	bn := &BatchNorm{
		gamma:    NewParam("bn.gamma", dim),
		beta:     NewParam("bn.beta", dim),
		mean:     tensor.NewVec(dim),
		vari:     tensor.NewVec(dim),
		momentum: 0.01,
		eps:      1e-5,
	}
	for i := range bn.gamma.W {
		bn.gamma.W[i] = 1
		bn.vari[i] = 1
	}
	return bn
}

// Forward writes the normalized x into y. A training pass (train) first
// moves the statistics towards x.
func (bn *BatchNorm) Forward(y, x tensor.Vec, train bool) {
	if train {
		for i, v := range x {
			d := v - bn.mean[i]
			bn.mean[i] += bn.momentum * d
			bn.vari[i] += bn.momentum * (d*d - bn.vari[i])
		}
	}
	for i, v := range x {
		y[i] = bn.gamma.W[i]*(v-bn.mean[i])/math.Sqrt(bn.vari[i]+bn.eps) + bn.beta.W[i]
	}
}

// Backward accumulates the gradients of gamma and beta for input x and
// writes dL/dx into dx, which may alias dy.
func (bn *BatchNorm) Backward(dx, x, dy tensor.Vec) {
	for i, gv := range dy {
		inv := 1 / math.Sqrt(bn.vari[i]+bn.eps)
		bn.gamma.G[i] += gv * (x[i] - bn.mean[i]) * inv
		bn.beta.G[i] += gv
		dx[i] = gv * bn.gamma.W[i] * inv
	}
}

// Params returns gamma and beta.
func (bn *BatchNorm) Params() []*Param { return []*Param{bn.gamma, bn.beta} }

// State returns the running statistics, which are not trained but must
// survive checkpointing: the mean, then the variance.
func (bn *BatchNorm) State() []tensor.Vec { return []tensor.Vec{bn.mean, bn.vari} }
