package net

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pbqprl/internal/cost"
	"pbqprl/internal/game"
	"pbqprl/internal/gcn"
	"pbqprl/internal/nn"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/randgraph"
	"pbqprl/internal/tensor"
)

func testView(seed int64, n, m int) gcn.View {
	rng := rand.New(rand.NewSource(seed))
	g := randgraph.ErdosRenyi(rng, randgraph.Config{N: n, M: m, PEdge: 0.5, PInf: 0.1})
	return graphView(g)
}

// graphView is a live view of the whole of g, in g's own vertex order,
// through a game of its own.
func graphView(g *pbqp.Graph) gcn.View { return game.New(g, g.Vertices()).View() }

func smallNet(m int) *PBQPNet {
	return New(Config{M: m, GCNLayers: 2, Hidden: 16, Blocks: 1, Seed: 1})
}

func TestEvaluateShape(t *testing.T) {
	p := smallNet(4)
	view := testView(2, 7, 4)
	prior, v := p.Evaluate(view)
	if len(prior) != 4 {
		t.Fatalf("prior length = %d", len(prior))
	}
	sum := 0.0
	for _, x := range prior {
		if x < 0 {
			t.Fatalf("negative prior %v", x)
		}
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("prior sum = %v", sum)
	}
	if v <= -1 || v >= 1 {
		t.Errorf("value = %v, want in (-1,1)", v)
	}
}

func TestMaskZeroesInfColors(t *testing.T) {
	m := 3
	g := randgraph.ErdosRenyi(rand.New(rand.NewSource(3)), randgraph.Config{N: 5, M: m, PEdge: 0.4, PInf: 0})
	g.VertexCost(g.Vertices()[0])[1] = cost.Inf
	view := graphView(g)
	prior, _ := smallNet(m).Evaluate(view)
	if prior[1] != 0 {
		t.Errorf("masked color has prior %v", prior[1])
	}
	if prior[0] == 0 && prior[2] == 0 {
		t.Error("all legal colors got zero prior")
	}
}

func TestDeterminism(t *testing.T) {
	view := testView(4, 6, 3)
	a, b := smallNet(3), smallNet(3)
	pa, va := a.Evaluate(view)
	pb, vb := b.Evaluate(view)
	if va != vb {
		t.Error("same seed, different values")
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("same seed, different priors")
		}
	}
}

// TestBackwardGradCheck checks every gradient end to end, through
// heads, torso, pooling and GCN, against central differences of
// loss = CE(policy, target) + (v - z)^2, with one residual block and
// with two chained.
func TestBackwardGradCheck(t *testing.T) {
	for _, blocks := range []int{1, 2} {
		t.Run(fmt.Sprintf("blocks_%d", blocks), func(t *testing.T) {
			checkBackward(t, New(Config{M: 3, GCNLayers: 2, Hidden: 16, Blocks: blocks, Seed: 1}))
		})
	}
}

func checkBackward(t *testing.T, p *PBQPNet) {
	t.Helper()
	view := testView(5, 5, p.cfg.M)
	target := tensor.Vec{0.2, 0.5, 0.3}
	const z = 0.7
	loss := func() float64 {
		logits, v := p.Forward(view)
		return nn.CrossEntropy(nn.Softmax(logits, nil), target) + nn.MSE(v, z)
	}
	logits, v := p.Forward(view)
	dLogits := nn.CrossEntropyGrad(nn.Softmax(logits, nil), target, nil)
	// v = tanh(s) is produced inside the value head; Backward wants
	// dL/dv and the head applies the tanh jacobian itself.
	dValue := nn.MSEGrad(v, z)
	for _, param := range p.Params() {
		param.ZeroGrad()
	}
	p.Backward(dLogits, dValue)
	const h = 1e-5
	checked := 0
	for _, param := range p.Params() {
		for i := 0; i < len(param.W); i += 7 { // sample every 7th weight
			orig := param.W[i]
			param.W[i] = orig + h
			lp := loss()
			param.W[i] = orig - h
			lm := loss()
			param.W[i] = orig
			want := (lp - lm) / (2 * h)
			if math.Abs(want-param.G[i]) > 1e-3*(1+math.Abs(want)) {
				t.Fatalf("%s[%d]: analytic %.6g numeric %.6g", param.Name, i, param.G[i], want)
			}
			checked++
		}
	}
	if checked < 50 {
		t.Fatalf("only checked %d weights", checked)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	a := smallNet(3)
	view := testView(6, 6, 3)
	// move stats away from init
	a.SetTraining(true)
	a.Forward(view)
	a.SetTraining(false)
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := New(Config{M: 3, GCNLayers: 2, Hidden: 16, Blocks: 1, Seed: 99})
	if err := b.Load(&buf); err != nil {
		t.Fatal(err)
	}
	pa, va := a.Evaluate(view)
	pb, vb := b.Evaluate(view)
	if va != vb {
		t.Error("values differ after load")
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("priors differ after load")
		}
	}
}

func TestLoadRejectsWrongShape(t *testing.T) {
	var buf bytes.Buffer
	if err := smallNet(3).Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := smallNet(4).Load(&buf); err == nil {
		t.Error("Load accepted wrong architecture")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	a := smallNet(3)
	b := a.Clone()
	view := testView(7, 5, 3)
	pa, _ := a.Evaluate(view)
	pb, _ := b.Evaluate(view)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("clone differs")
		}
	}
	b.Params()[0].W[0] += 0.5
	pa2, _ := a.Evaluate(view)
	for i := range pa {
		if pa[i] != pa2[i] {
			t.Fatal("mutating clone changed original")
		}
	}
}

func TestCopyFromPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	smallNet(3).CopyFrom(smallNet(5))
}

func TestTrainingReducesLoss(t *testing.T) {
	// sanity: a few Adam steps on one sample must reduce the loss
	m := 3
	view := testView(8, 6, m)
	p := smallNet(m)
	target := tensor.Vec{0, 1, 0}
	const z = -0.5
	lossOf := func() float64 {
		logits, v := p.Forward(view)
		return nn.CrossEntropy(nn.Softmax(logits, nil), target) + nn.MSE(v, z)
	}
	before := lossOf()
	opt := nn.NewAdam(0.01)
	p.SetTraining(true)
	for i := 0; i < 30; i++ {
		logits, v := p.Forward(view)
		p.Backward(nn.CrossEntropyGrad(nn.Softmax(logits, nil), target, nil), nn.MSEGrad(v, z))
		opt.Step(p.Params())
	}
	p.SetTraining(false)
	after := lossOf()
	if after >= before {
		t.Errorf("loss did not decrease: %v -> %v", before, after)
	}
}
