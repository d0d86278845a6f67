package nn

import (
	"math"
	"math/rand"
	"testing"

	"pbqprl/internal/tensor"
)

// numericalGrad estimates dL/dw by central differences.
func numericalGrad(loss func() float64, w *float64) float64 {
	const h = 1e-5
	orig := *w
	*w = orig + h
	lp := loss()
	*w = orig - h
	lm := loss()
	*w = orig
	return (lp - lm) / (2 * h)
}

// checkModuleGrads verifies parameter and input gradients of a module
// against numerical differentiation for a quadratic loss L = Σ y².
func checkModuleGrads(t *testing.T, m Module, in int) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	x := make(tensor.Vec, in)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	loss := func() float64 {
		y := m.Forward(x)
		s := 0.0
		for _, v := range y {
			s += v * v
		}
		return s
	}
	y := m.Forward(x)
	grad := make(tensor.Vec, len(y))
	for i, v := range y {
		grad[i] = 2 * v
	}
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
	gx := m.Backward(grad)
	for _, p := range m.Params() {
		for i := range p.W {
			want := numericalGrad(loss, &p.W[i])
			if math.Abs(want-p.G[i]) > 1e-4*(1+math.Abs(want)) {
				t.Fatalf("param %s[%d]: analytic %.6f, numeric %.6f", p.Name, i, p.G[i], want)
			}
		}
	}
	for i := range x {
		want := numericalGrad(loss, &x[i])
		if math.Abs(want-gx[i]) > 1e-4*(1+math.Abs(want)) {
			t.Fatalf("input[%d]: analytic %.6f, numeric %.6f", i, gx[i], want)
		}
	}
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	checkModuleGrads(t, NewDense(rng, 4, 3), 4)
}

func TestReLUGradients(t *testing.T) {
	checkModuleGrads(t, &ReLU{}, 5)
}

func TestTanhGradients(t *testing.T) {
	checkModuleGrads(t, &Tanh{}, 5)
}

func TestBatchNormGradients(t *testing.T) {
	bn := NewBatchNorm(4)
	// leave training off: stats frozen, gradients exact
	checkModuleGrads(t, bn, 4)
}

func TestSequentialGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewSequential(NewDense(rng, 4, 6), &ReLU{}, NewDense(rng, 6, 2), &Tanh{})
	checkModuleGrads(t, m, 4)
}

func TestResidualGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewResidual(NewSequential(NewDense(rng, 4, 4), &Tanh{}))
	checkModuleGrads(t, m, 4)
}

func TestDeepTorsoGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	block := func() Module {
		return NewResidual(NewSequential(NewDense(rng, 6, 6), NewBatchNorm(6), &ReLU{}, NewDense(rng, 6, 6), NewBatchNorm(6)))
	}
	m := NewSequential(NewDense(rng, 5, 6), &ReLU{}, block(), block(), NewDense(rng, 6, 3))
	checkModuleGrads(t, m, 5)
}

func TestBatchNormUpdatesStatsOnlyInTraining(t *testing.T) {
	bn := NewBatchNorm(2)
	x := tensor.Vec{10, -10}
	bn.Forward(x)
	if bn.mean[0] != 0 {
		t.Error("stats updated in eval mode")
	}
	SetTraining(bn, true)
	bn.Forward(x)
	if bn.mean[0] == 0 {
		t.Error("stats not updated in training mode")
	}
	SetTraining(bn, false)
	m := bn.mean[0]
	bn.Forward(x)
	if bn.mean[0] != m {
		t.Error("stats updated after switching back to eval")
	}
}

func TestSetTrainingRecurses(t *testing.T) {
	bn := NewBatchNorm(2)
	m := NewSequential(NewResidual(NewSequential(bn)))
	SetTraining(m, true)
	if !bn.training {
		t.Error("SetTraining did not reach nested BatchNorm")
	}
}

func TestSoftmax(t *testing.T) {
	p := Softmax(tensor.Vec{1, 2, 3}, nil)
	sum := 0.0
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("sum = %v", sum)
	}
	if !(p[2] > p[1] && p[1] > p[0]) {
		t.Errorf("ordering broken: %v", p)
	}
	// numerical stability with huge logits
	p = Softmax(tensor.Vec{1000, 1001}, nil)
	if math.IsNaN(p[0]) || math.Abs(p[0]+p[1]-1) > 1e-12 {
		t.Errorf("unstable softmax: %v", p)
	}
}

func TestSoftmaxMask(t *testing.T) {
	p := Softmax(tensor.Vec{5, 1, 1}, []bool{false, true, true})
	if p[0] != 0 {
		t.Errorf("masked entry nonzero: %v", p)
	}
	if math.Abs(p[1]-0.5) > 1e-12 || math.Abs(p[2]-0.5) > 1e-12 {
		t.Errorf("unmasked entries wrong: %v", p)
	}
	p = Softmax(tensor.Vec{1, 2}, []bool{false, false})
	if p[0] != 0 || p[1] != 0 {
		t.Errorf("all-masked softmax = %v, want zeros", p)
	}
}

func TestCrossEntropyGradMatchesNumeric(t *testing.T) {
	logits := tensor.Vec{0.5, -1, 2}
	target := tensor.Vec{0.2, 0.3, 0.5}
	loss := func() float64 { return CrossEntropy(Softmax(logits, nil), target) }
	g := CrossEntropyGrad(Softmax(logits, nil), target, nil)
	for i := range logits {
		want := numericalGrad(loss, &logits[i])
		if math.Abs(want-g[i]) > 1e-5 {
			t.Errorf("dL/dlogit[%d]: analytic %.6f, numeric %.6f", i, g[i], want)
		}
	}
}

func TestL2PenaltyAndGrad(t *testing.T) {
	p := newParam("p", 2)
	p.W[0], p.W[1] = 3, 4
	if got := L2Penalty([]*Param{p}, 0.1); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("L2Penalty = %v, want 2.5", got)
	}
	AddL2Grad([]*Param{p}, 0.1)
	if math.Abs(p.G[0]-0.6) > 1e-12 || math.Abs(p.G[1]-0.8) > 1e-12 {
		t.Errorf("L2 grad = %v", p.G)
	}
}

func TestAdamConvergesOnClassification(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := NewSequential(NewDense(rng, 2, 16), &ReLU{}, NewDense(rng, 16, 2))
	opt := NewAdam(0.01)
	sample := func() (tensor.Vec, int) {
		x := tensor.Vec{rng.NormFloat64(), rng.NormFloat64()}
		cls := 0
		if x[0]*x[1] > 0 { // XOR-like quadrant problem
			cls = 1
		}
		return x, cls
	}
	for step := 0; step < 4000; step++ {
		x, cls := sample()
		logits := m.Forward(x)
		p := Softmax(logits, nil)
		target := tensor.Vec{0, 0}
		target[cls] = 1
		m.Backward(CrossEntropyGrad(p, target, nil))
		opt.Step(m.Params())
	}
	correct := 0
	const trials = 500
	for i := 0; i < trials; i++ {
		x, cls := sample()
		logits := m.Forward(x)
		pred := 0
		if logits[1] > logits[0] {
			pred = 1
		}
		if pred == cls {
			correct++
		}
	}
	if acc := float64(correct) / trials; acc < 0.9 {
		t.Errorf("accuracy = %.2f, want >= 0.9", acc)
	}
}

func TestOptimizerClearsGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewDense(rng, 2, 2)
	d.Forward(tensor.Vec{1, 1})
	d.Backward(tensor.Vec{1, 1})
	NewAdam(0.001).Step(d.Params())
	for _, p := range d.Params() {
		for _, g := range p.G {
			if g != 0 {
				t.Fatal("gradients not cleared after Step")
			}
		}
	}
}
