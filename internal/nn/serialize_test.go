package nn

import (
	"bytes"
	"math/rand"
	"testing"

	"pbqprl/internal/tensor"
)

// stack is a dense layer, a batch norm and a second dense layer: enough
// parameter and state tensors of several shapes to save and load.
type stack struct {
	d1, d2 *Dense
	bn     *BatchNorm
}

func buildStack(seed int64, hidden int) stack {
	rng := rand.New(rand.NewSource(seed))
	return stack{d1: NewDense(rng, 3, hidden), bn: NewBatchNorm(hidden), d2: NewDense(rng, hidden, 2)}
}

// tensors lists every parameter tensor of s, then the batch norm's
// statistics: the list a network saves.
func (s stack) tensors() []tensor.Vec {
	var ts []tensor.Vec
	for _, p := range append(append(s.d1.Params(), s.bn.Params()...), s.d2.Params()...) {
		ts = append(ts, p.W)
	}
	return append(ts, s.bn.State()...)
}

func (s stack) forward(x tensor.Vec, train bool) tensor.Vec {
	h, n, y := tensor.NewVec(s.d1.Out), tensor.NewVec(s.d1.Out), tensor.NewVec(2)
	s.d1.Forward(h, x)
	s.bn.Forward(n, h, train)
	s.d2.Forward(y, n)
	return y
}

func TestSaveLoadRoundTrip(t *testing.T) {
	src := buildStack(1, 8)
	// touch batchnorm stats so state serialization is exercised
	src.forward(tensor.Vec{1, -2, 3}, true)

	var buf bytes.Buffer
	if err := SaveTensors(&buf, src.tensors()); err != nil {
		t.Fatal(err)
	}
	dst := buildStack(2, 8) // different init
	if err := LoadTensors(&buf, dst.tensors()); err != nil {
		t.Fatal(err)
	}
	x := tensor.Vec{0.5, 0.25, -1}
	a, b := src.forward(x, false), dst.forward(x, false)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outputs differ after load: %v vs %v", a, b)
		}
	}
}

func TestLoadRejectsWrongArchitecture(t *testing.T) {
	saved := buildStack(1, 8).tensors()
	rng := rand.New(rand.NewSource(3))
	var fewer []tensor.Vec
	for _, p := range NewDense(rng, 3, 4).Params() {
		fewer = append(fewer, p.W)
	}
	for _, tc := range []struct {
		name  string
		other []tensor.Vec
	}{
		{"fewer tensors", fewer},
		{"same count, other shapes", buildStack(3, 4).tensors()},
	} {
		var buf bytes.Buffer
		if err := SaveTensors(&buf, saved); err != nil {
			t.Fatal(err)
		}
		if err := LoadTensors(&buf, tc.other); err == nil {
			t.Errorf("%s: LoadTensors accepted a mismatched architecture", tc.name)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if err := LoadTensors(bytes.NewReader([]byte("not a checkpoint")), buildStack(1, 8).tensors()); err == nil {
		t.Error("LoadTensors accepted garbage")
	}
}
