package nn

import (
	"bytes"
	"math/rand"
	"testing"

	"pbqprl/internal/tensor"
)

func buildNet(seed int64) Module {
	rng := rand.New(rand.NewSource(seed))
	return NewSequential(
		NewDense(rng, 3, 8), NewBatchNorm(8), &ReLU{},
		NewResidual(NewSequential(NewDense(rng, 8, 8), &Tanh{})),
		NewDense(rng, 8, 2),
	)
}

// tensors lists every parameter and state tensor of m, the list a
// network saves.
func tensors(m Module) []tensor.Vec {
	params, state := Collect(m)
	return append(params, state...)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	src := buildNet(1)
	// touch batchnorm stats so state serialization is exercised
	SetTraining(src, true)
	src.Forward(tensor.Vec{1, -2, 3})
	SetTraining(src, false)

	var buf bytes.Buffer
	if err := SaveTensors(&buf, tensors(src)); err != nil {
		t.Fatal(err)
	}
	dst := buildNet(2) // different init
	if err := LoadTensors(&buf, tensors(dst)); err != nil {
		t.Fatal(err)
	}
	x := tensor.Vec{0.5, 0.25, -1}
	a, b := src.Forward(x), dst.Forward(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outputs differ after load: %v vs %v", a, b)
		}
	}
}

func TestLoadRejectsWrongArchitecture(t *testing.T) {
	saved := tensors(buildNet(1))
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		name  string
		other Module
	}{
		{"fewer tensors", NewSequential(NewDense(rng, 3, 4))},
		{"same count, other shapes", NewSequential(
			NewDense(rng, 3, 4), NewBatchNorm(4), &ReLU{},
			NewResidual(NewSequential(NewDense(rng, 4, 4), &Tanh{})),
			NewDense(rng, 4, 2),
		)},
	} {
		var buf bytes.Buffer
		if err := SaveTensors(&buf, saved); err != nil {
			t.Fatal(err)
		}
		if err := LoadTensors(&buf, tensors(tc.other)); err == nil {
			t.Errorf("%s: LoadTensors accepted a mismatched architecture", tc.name)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if err := LoadTensors(bytes.NewReader([]byte("not a checkpoint")), tensors(buildNet(1))); err == nil {
		t.Error("LoadTensors accepted garbage")
	}
}
