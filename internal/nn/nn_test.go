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

// checkGrads verifies a layer's parameter and input gradients against
// numerical differentiation for a quadratic loss L = Σ y², where
// forward writes the layer's output for x into y and backward is its
// Backward(dx, x, dy).
func checkGrads(t *testing.T, in, out int, params []*Param, forward func(y, x tensor.Vec), backward func(dx, x, dy tensor.Vec)) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	x := make(tensor.Vec, in)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make(tensor.Vec, out)
	loss := func() float64 {
		forward(y, x)
		s := 0.0
		for _, v := range y {
			s += v * v
		}
		return s
	}
	forward(y, x)
	grad := make(tensor.Vec, out)
	for i, v := range y {
		grad[i] = 2 * v
	}
	for _, p := range params {
		p.ZeroGrad()
	}
	gx := make(tensor.Vec, in)
	backward(gx, x, grad)
	for _, p := range params {
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
	d := NewDense(rng, 4, 3)
	checkGrads(t, 4, 3, d.Params(), d.Forward, d.Backward)
}

func TestReLUGradients(t *testing.T) {
	checkGrads(t, 5, 5, nil, ReLU, ReLUBackward)
}

func TestBatchNormGradients(t *testing.T) {
	bn := NewBatchNorm(4)
	// no training pass: stats frozen, gradients exact
	forward := func(y, x tensor.Vec) { bn.Forward(y, x, false) }
	checkGrads(t, 4, 4, bn.Params(), forward, bn.Backward)
}

func TestBatchNormUpdatesStatsOnlyInTraining(t *testing.T) {
	bn := NewBatchNorm(2)
	x, y := tensor.Vec{10, -10}, tensor.NewVec(2)
	bn.Forward(y, x, false)
	if bn.mean[0] != 0 {
		t.Error("stats updated in eval mode")
	}
	bn.Forward(y, x, true)
	if bn.mean[0] == 0 {
		t.Error("stats not updated in training mode")
	}
	m := bn.mean[0]
	bn.Forward(y, x, false)
	if bn.mean[0] != m {
		t.Error("stats updated after switching back to eval")
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

// TestSoftmaxAllInfiniteLogits is the saturated-vertex regression: when
// every unmasked logit is -∞ the old code produced NaN probabilities
// (exp(-∞ − -∞)); the defined result is the all-zero distribution.
func TestSoftmaxAllInfiniteLogits(t *testing.T) {
	neg := math.Inf(-1)
	cases := []struct {
		logits tensor.Vec
		mask   []bool
	}{
		{tensor.Vec{neg, neg, neg}, nil},
		{tensor.Vec{neg, 1, neg}, []bool{true, false, true}},
		{tensor.Vec{1, 2, 3}, []bool{false, false, false}},
	}
	for i, c := range cases {
		got := Softmax(c.logits, c.mask)
		for j, p := range got {
			if p != 0 || math.Signbit(p) {
				t.Errorf("case %d: Softmax[%d] = %v, want +0", i, j, p)
			}
		}
	}
}

// TestSoftmaxIntoMatchesSoftmax: the Into variant is the same function.
func TestSoftmaxIntoMatchesSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(12)
		logits := make(tensor.Vec, n)
		mask := make([]bool, n)
		for i := range logits {
			logits[i] = rng.NormFloat64() * 3
			mask[i] = rng.Intn(4) > 0
		}
		want := Softmax(logits, mask)
		got := make(tensor.Vec, n)
		for i := range got {
			got[i] = math.NaN()
		}
		SoftmaxInto(got, logits, mask)
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("trial %d: SoftmaxInto[%d] = %x, want %x", trial, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
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
	p := NewParam("p", 2)
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
	d1, d2 := NewDense(rng, 2, 16), NewDense(rng, 16, 2)
	params := append(d1.Params(), d2.Params()...)
	h, r, logits := tensor.NewVec(16), tensor.NewVec(16), tensor.NewVec(2)
	dr, dx := tensor.NewVec(16), tensor.NewVec(2)
	forward := func(x tensor.Vec) tensor.Vec {
		d1.Forward(h, x)
		ReLU(r, h)
		d2.Forward(logits, r)
		return logits
	}
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
		p := Softmax(forward(x), nil)
		target := tensor.Vec{0, 0}
		target[cls] = 1
		d2.Backward(dr, r, CrossEntropyGrad(p, target, nil))
		ReLUBackward(dr, h, dr)
		d1.Backward(dx, x, dr)
		opt.Step(params)
	}
	correct := 0
	const trials = 500
	for i := 0; i < trials; i++ {
		x, cls := sample()
		logits := forward(x)
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
	x := tensor.Vec{1, 1}
	d.Forward(tensor.NewVec(2), x)
	d.Backward(tensor.NewVec(2), x, tensor.Vec{1, 1})
	NewAdam(0.001).Step(d.Params())
	for _, p := range d.Params() {
		for _, g := range p.G {
			if g != 0 {
				t.Fatal("gradients not cleared after Step")
			}
		}
	}
}
