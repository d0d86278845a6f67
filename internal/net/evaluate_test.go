package net

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"pbqprl/internal/game"
	"pbqprl/internal/gcn"
	"pbqprl/internal/randgraph"
	"pbqprl/internal/tensor"
)

// TestEvaluateLeavesBackwardCaches: an Evaluate between a Forward and
// its Backward must not disturb the gradients. While Evaluate was
// Forward + Softmax it overwrote lastView/lastH/lastPooled and the GCN
// and torso tapes, and the Backward ran against the wrong state.
func TestEvaluateLeavesBackwardCaches(t *testing.T) {
	const m = 4
	v1, v2 := testView(111, 7, m), testView(112, 4, m)
	dLogits := tensor.Vec{0.3, -0.1, 0.25, -0.45}
	grads := func(between bool) []tensor.Vec {
		p := smallNet(m)
		p.Forward(v1)
		if between {
			p.Evaluate(v2)
		}
		p.Backward(dLogits, 0.6)
		var out []tensor.Vec
		for _, param := range p.Params() {
			out = append(out, param.G)
		}
		return out
	}
	want, got := grads(false), grads(true)
	for i := range want {
		for j := range want[i] {
			if math.Float64bits(want[i][j]) != math.Float64bits(got[i][j]) {
				t.Fatalf("param %d grad[%d] = %v with an Evaluate between Forward and Backward, want %v",
					i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestEvaluateTrainingModePanics pins the training-mode contract: a
// net left between SetTraining(true) and SetTraining(false) refuses to
// evaluate (its batch-norm statistics are moving) instead of quietly
// folding the evaluated state into them, and evaluates again once the
// bracket is closed.
func TestEvaluateTrainingModePanics(t *testing.T) {
	const m = 4
	p := smallNet(m)
	view := testView(113, 6, m)
	before, err := p.SaveBytes()
	if err != nil {
		t.Fatal(err)
	}

	p.SetTraining(true)
	func() {
		defer func() {
			if pv := recover(); pv == nil || !strings.Contains(fmt.Sprint(pv), "training-mode") {
				t.Errorf("Evaluate in training mode: recovered %v, want the training-mode panic", pv)
			}
		}()
		p.Evaluate(view)
	}()
	p.SetTraining(false)

	after, err := p.SaveBytes()
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Error("the refused Evaluate changed the network's weights or statistics")
	}
	wantPrior, wantValue := scalarEvaluate(p, view)
	prior, value := p.Evaluate(view)
	sameBits(t, "after SetTraining(false)", prior, wantPrior, value, wantValue)
}

// zeroInfGame is a zero/infinity game in a shuffled coloring order.
func zeroInfGame(seed int64, n, m int) *game.State {
	rng := rand.New(rand.NewSource(seed))
	g, _ := randgraph.ZeroInf(rng, randgraph.ZeroInfConfig{
		N: n, M: m, PEdge: 0.4, HardRatio: 0.4, PEdgeInf: 0.3,
	})
	return game.New(g, rng.Perm(n))
}

// TestEvaluateAllocatesOnlyThePrior: in the steady state Evaluate's one
// allocation is the prior it returns, for a stand-alone graph view and
// for a game's window view alike.
func TestEvaluateAllocatesOnlyThePrior(t *testing.T) {
	const m = 5
	p := New(Config{M: m, GCNLayers: 2, Hidden: 16, Blocks: 1, Seed: 114})
	for name, view := range map[string]gcn.View{
		"graph view": zeroInfView(115, 14, m),
		"game view":  zeroInfGame(116, 14, m).View(),
	} {
		p.Evaluate(view) // warm scratch and caches
		if n := testing.AllocsPerRun(50, func() { p.Evaluate(view) }); n != 1 {
			t.Errorf("%s: steady-state Evaluate allocates %.1f times per run, want 1", name, n)
		}
	}
}

// TestEvaluateGameViewsBitIdentical walks games forward and back and
// checks the engine against the trainable pass on every live view: the
// window views take gcn.Infer's edge-table path, the reference reads
// the same views through Nbrs/Mat. Two nets take turns on each state,
// so the table's kernel memo changes owner on every evaluation.
func TestEvaluateGameViewsBitIdentical(t *testing.T) {
	const m = 4
	a := New(Config{M: m, GCNLayers: 2, Hidden: 16, Blocks: 1, Seed: 117})
	b := New(Config{M: m, GCNLayers: 2, Hidden: 16, Blocks: 1, Seed: 118})
	for seed := int64(0); seed < 6; seed++ {
		st := zeroInfGame(120+seed, 12, m)
		rng := rand.New(rand.NewSource(130 + seed))
		for step := 0; step < 60; step++ {
			if !st.Done() {
				for _, p := range []*PBQPNet{a, b} {
					wantPrior, wantValue := scalarEvaluate(p, st.View())
					prior, value := p.Evaluate(st.View())
					sameBits(t, fmt.Sprintf("game %d step %d turn %d", seed, step, st.Turn()), prior, wantPrior, value, wantValue)
				}
			}
			var legal []int
			for c := 0; c < m && !st.Done(); c++ {
				if st.Legal(c) {
					legal = append(legal, c)
				}
			}
			if st.Turn() > 0 && (len(legal) == 0 || rng.Intn(3) == 0) {
				st.Undo()
			} else if len(legal) > 0 {
				st.Play(legal[rng.Intn(len(legal))])
			}
		}
	}
}
