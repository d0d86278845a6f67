package nn

import (
	"math"
	"math/rand"
	"testing"

	"pbqprl/internal/tensor"
)

// torsoLike builds the module shape net.PBQPNet uses: dense + batchnorm
// + relu with residual blocks, plus a tanh to cover every module type.
func torsoLike(rng *rand.Rand, in, hidden int) Module {
	block := NewResidual(NewSequential(
		NewDense(rng, hidden, hidden), NewBatchNorm(hidden), &ReLU{},
		NewDense(rng, hidden, hidden), NewBatchNorm(hidden),
	))
	return NewSequential(
		NewDense(rng, in, hidden), NewBatchNorm(hidden), &ReLU{},
		block, &ReLU{},
		NewDense(rng, hidden, hidden), &Tanh{},
	)
}

// randInput returns a standard-normal vector of length n.
func randInput(rng *rand.Rand, n int) tensor.Vec {
	x := make(tensor.Vec, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// warmStats runs a few training-mode samples through mod so the
// BatchNorm statistics are not the trivial (0, 1) initialization.
func warmStats(rng *rand.Rand, mod Module, in int) {
	SetTraining(mod, true)
	for i := 0; i < 7; i++ {
		mod.Forward(randInput(rng, in))
	}
	SetTraining(mod, false)
}

// TestInferBitIdenticalToForward is the walker's core contract
// (it kept its name when Infer lost its batch dimension): the read-only
// pass equals Forward, bit for bit, on one reused arena.
func TestInferBitIdenticalToForward(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const in, hidden = 10, 16
	mod := torsoLike(rng, in, hidden)
	warmStats(rng, mod, in)
	sc := &InferScratch{}
	for trial := 0; trial < 29; trial++ {
		x := randInput(rng, in)
		sc.Reset()
		got := Infer(mod, x, sc)
		want := mod.Forward(x)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d outputs, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("trial %d col %d: got %x want %x", trial, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
}

// TestInferLeavesModuleUntouched pins the read-only property: the
// walker neither updates BatchNorm statistics nor the Forward caches.
func TestInferLeavesModuleUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const in, hidden = 6, 8
	mod := torsoLike(rng, in, hidden)
	warmStats(rng, mod, in)

	probe := randInput(rng, in)
	before := mod.Forward(probe).Clone()

	Infer(mod, randInput(rng, in), &InferScratch{})

	after := mod.Forward(probe)
	for i := range before {
		if math.Float64bits(before[i]) != math.Float64bits(after[i]) {
			t.Fatalf("Infer changed module state: forward[%d] %x -> %x",
				i, math.Float64bits(before[i]), math.Float64bits(after[i]))
		}
	}
}

// TestInferAllocFree: after the first pass sizes the arena, the
// steady-state pass performs zero allocations.
func TestInferAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const in, hidden = 10, 16
	mod := torsoLike(rng, in, hidden)
	warmStats(rng, mod, in)
	sc := &InferScratch{}
	x := randInput(rng, in)
	Infer(mod, x, sc) // size the arena
	if n := testing.AllocsPerRun(50, func() {
		sc.Reset()
		Infer(mod, x, sc)
	}); n != 0 {
		t.Fatalf("steady-state Infer allocates %.1f times per run", n)
	}
}

// TestInferTrainingModePanics: evaluating through a training-mode
// BatchNorm must fail fast instead of silently diverging.
func TestInferTrainingModePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	mod := torsoLike(rng, 4, 4)
	SetTraining(mod, true)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Infer(mod, tensor.NewVec(4), &InferScratch{})
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
