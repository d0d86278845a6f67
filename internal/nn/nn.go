// Package nn is a small neural-network library with explicit forward and
// backward passes: dense layers, ReLU/Tanh nonlinearities, an online
// batch-normalization variant, residual blocks, softmax with
// cross-entropy, the Adam optimizer, and Xavier initialization.
//
// Modules process one sample at a time and cache the activations of the
// most recent Forward call; Backward consumes that cache, accumulates
// parameter gradients, and returns the gradient with respect to the
// module input. Minibatch training accumulates gradients over samples
// and then takes one optimizer step, which is mathematically identical
// to batched backpropagation.
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

// newParam allocates a named parameter of size n.
func newParam(name string, n int) *Param {
	return &Param{Name: name, W: tensor.NewVec(n), G: tensor.NewVec(n)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.G.Zero() }

// Module is a differentiable computation over single samples.
type Module interface {
	// Forward computes the module output for input x and caches the
	// activations needed by Backward.
	Forward(x tensor.Vec) tensor.Vec
	// Backward takes dL/d(output) for the most recent Forward call,
	// accumulates dL/d(params) into the parameter gradients, and
	// returns dL/d(input).
	Backward(grad tensor.Vec) tensor.Vec
	// Params returns the module's trainable parameters.
	Params() []*Param
}

// Trainable is implemented by modules whose behaviour differs between
// training and inference (currently BatchNorm).
type Trainable interface {
	SetTraining(bool)
}

// SetTraining switches every Trainable submodule of m.
func SetTraining(m Module, training bool) {
	Visit(m, func(sub Module) {
		if t, ok := sub.(Trainable); ok {
			t.SetTraining(training)
		}
	})
}

// Dense is a fully connected layer y = W·x + b.
type Dense struct {
	In, Out int
	w, b    *Param
	x       tensor.Vec // cached input
}

// NewDense returns a dense layer with Xavier-uniform initialized weights.
func NewDense(rng *rand.Rand, in, out int) *Dense {
	d := &Dense{In: in, Out: out, w: newParam("dense.w", in*out), b: newParam("dense.b", out)}
	bound := math.Sqrt(6.0 / float64(in+out))
	for i := range d.w.W {
		d.w.W[i] = (rng.Float64()*2 - 1) * bound
	}
	return d
}

// Forward implements Module.
func (d *Dense) Forward(x tensor.Vec) tensor.Vec {
	d.x = x.Clone()
	m := &tensor.Mat{R: d.Out, C: d.In, W: d.w.W}
	y := m.MulVec(x)
	y.AddInPlace(d.b.W)
	return y
}

// Backward implements Module.
func (d *Dense) Backward(grad tensor.Vec) tensor.Vec {
	gw := &tensor.Mat{R: d.Out, C: d.In, W: d.w.G}
	gw.AddOuter(1, grad, d.x)
	d.b.G.AddInPlace(grad)
	m := &tensor.Mat{R: d.Out, C: d.In, W: d.w.W}
	return m.MulTVec(grad)
}

// Params implements Module.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

// ReLU is the elementwise rectifier.
type ReLU struct{ x tensor.Vec }

// Forward implements Module.
func (r *ReLU) Forward(x tensor.Vec) tensor.Vec {
	r.x = x.Clone()
	y := x.Clone()
	for i, v := range y {
		if v < 0 {
			y[i] = 0
		}
	}
	return y
}

// Backward implements Module.
func (r *ReLU) Backward(grad tensor.Vec) tensor.Vec {
	g := grad.Clone()
	for i := range g {
		if r.x[i] <= 0 {
			g[i] = 0
		}
	}
	return g
}

// Params implements Module.
func (r *ReLU) Params() []*Param { return nil }

// Tanh is the elementwise hyperbolic tangent.
type Tanh struct{ y tensor.Vec }

// Forward implements Module.
func (t *Tanh) Forward(x tensor.Vec) tensor.Vec {
	y := make(tensor.Vec, len(x))
	for i, v := range x {
		y[i] = math.Tanh(v)
	}
	t.y = y.Clone()
	return y
}

// Backward implements Module.
func (t *Tanh) Backward(grad tensor.Vec) tensor.Vec {
	g := grad.Clone()
	for i := range g {
		g[i] *= 1 - t.y[i]*t.y[i]
	}
	return g
}

// Params implements Module.
func (t *Tanh) Params() []*Param { return nil }

// BatchNorm normalizes each feature with running mean/variance
// statistics and applies a learned affine transform. The statistics are
// updated online (exponential moving average over the sample stream)
// while training and frozen during inference; the backward pass treats
// them as constants. This "online" variant replaces minibatch statistics
// because the library processes one sample at a time; it fills the same
// conditioning role as the paper's batch-normalization layers.
type BatchNorm struct {
	Dim         int
	gamma, beta *Param
	mean, vari  tensor.Vec
	momentum    float64
	eps         float64
	training    bool
	x           tensor.Vec
}

// NewBatchNorm returns a BatchNorm over dim features.
func NewBatchNorm(dim int) *BatchNorm {
	bn := &BatchNorm{
		Dim:      dim,
		gamma:    newParam("bn.gamma", dim),
		beta:     newParam("bn.beta", dim),
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

// SetTraining implements Trainable.
func (bn *BatchNorm) SetTraining(t bool) { bn.training = t }

// Forward implements Module.
func (bn *BatchNorm) Forward(x tensor.Vec) tensor.Vec {
	if bn.training {
		for i, v := range x {
			d := v - bn.mean[i]
			bn.mean[i] += bn.momentum * d
			bn.vari[i] += bn.momentum * (d*d - bn.vari[i])
		}
	}
	bn.x = x.Clone()
	y := make(tensor.Vec, len(x))
	for i, v := range x {
		y[i] = bn.gamma.W[i]*(v-bn.mean[i])/math.Sqrt(bn.vari[i]+bn.eps) + bn.beta.W[i]
	}
	return y
}

// Backward implements Module.
func (bn *BatchNorm) Backward(grad tensor.Vec) tensor.Vec {
	g := make(tensor.Vec, len(grad))
	for i, gv := range grad {
		inv := 1 / math.Sqrt(bn.vari[i]+bn.eps)
		bn.gamma.G[i] += gv * (bn.x[i] - bn.mean[i]) * inv
		bn.beta.G[i] += gv
		g[i] = gv * bn.gamma.W[i] * inv
	}
	return g
}

// Params implements Module.
func (bn *BatchNorm) Params() []*Param { return []*Param{bn.gamma, bn.beta} }

// Sequential chains modules.
type Sequential struct{ mods []Module }

// NewSequential returns the composition of mods, applied left to right.
func NewSequential(mods ...Module) *Sequential { return &Sequential{mods: mods} }

// Forward implements Module.
func (s *Sequential) Forward(x tensor.Vec) tensor.Vec {
	for _, m := range s.mods {
		x = m.Forward(x)
	}
	return x
}

// Backward implements Module.
func (s *Sequential) Backward(grad tensor.Vec) tensor.Vec {
	for i := len(s.mods) - 1; i >= 0; i-- {
		grad = s.mods[i].Backward(grad)
	}
	return grad
}

// Params implements Module.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, m := range s.mods {
		ps = append(ps, m.Params()...)
	}
	return ps
}

// Residual computes y = x + body(x); input and output widths must match.
type Residual struct {
	body Module
}

// NewResidual wraps body in a skip connection.
func NewResidual(body Module) *Residual { return &Residual{body: body} }

// Forward implements Module.
func (r *Residual) Forward(x tensor.Vec) tensor.Vec {
	y := r.body.Forward(x)
	return y.Add(x)
}

// Backward implements Module.
func (r *Residual) Backward(grad tensor.Vec) tensor.Vec {
	g := r.body.Backward(grad)
	return g.Add(grad)
}

// Params implements Module.
func (r *Residual) Params() []*Param { return r.body.Params() }
