package mcts

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"pbqprl/internal/game"
	"pbqprl/internal/gcn"
	"pbqprl/internal/net"
	"pbqprl/internal/nn"
	"pbqprl/internal/randgraph"
	"pbqprl/internal/tensor"
)

// batchWrap lifts any Evaluator to a BatchEvaluator by looping — which
// is trivially per-view bit-identical — and records the microbatch
// sizes it served.
type batchWrap struct {
	Evaluator
	sizes []int
}

func (b *batchWrap) EvaluateBatch(views []gcn.View) ([]tensor.Vec, []float64) {
	b.sizes = append(b.sizes, len(views))
	priors := make([]tensor.Vec, len(views))
	values := make([]float64, len(views))
	for i, v := range views {
		priors[i], values[i] = b.Evaluate(v)
	}
	return priors, values
}

// compareTrees asserts node-for-node, bit-for-bit equality of the two
// trees' search statistics. Speculation may have created extra
// never-visited (unexpanded, zero-stat) children in the batched tree;
// those are equivalent to a nil child.
func compareTrees(t *testing.T, want, got *node, path string) {
	t.Helper()
	if want.expanded != got.expanded || want.terminal != got.terminal || want.deadEnd != got.deadEnd {
		t.Fatalf("%s: flags differ: want (%v %v %v), got (%v %v %v)", path,
			want.expanded, want.terminal, want.deadEnd, got.expanded, got.terminal, got.deadEnd)
	}
	if !want.expanded {
		return
	}
	if math.Float64bits(want.value) != math.Float64bits(got.value) {
		t.Fatalf("%s: value %x != %x", path, math.Float64bits(got.value), math.Float64bits(want.value))
	}
	if len(want.prior) != len(got.prior) {
		t.Fatalf("%s: prior lengths differ", path)
	}
	for a := range want.prior {
		if math.Float64bits(want.prior[a]) != math.Float64bits(got.prior[a]) {
			t.Fatalf("%s: prior[%d] %x != %x", path, a, math.Float64bits(got.prior[a]), math.Float64bits(want.prior[a]))
		}
	}
	for a := range want.n {
		if want.n[a] != got.n[a] {
			t.Fatalf("%s: n[%d] = %d, want %d", path, a, got.n[a], want.n[a])
		}
		if math.Float64bits(want.q[a]) != math.Float64bits(got.q[a]) {
			t.Fatalf("%s: q[%d] %x != %x", path, a, math.Float64bits(got.q[a]), math.Float64bits(want.q[a]))
		}
	}
	for a := range want.children {
		wc, gc := want.children[a], got.children[a]
		switch {
		case wc == nil && gc == nil:
		case wc == nil:
			if gc.expanded {
				t.Fatalf("%s: child %d expanded only in batched tree", path, a)
			}
		case gc == nil:
			if wc.expanded {
				t.Fatalf("%s: child %d expanded only in sequential tree", path, a)
			}
		default:
			compareTrees(t, wc, gc, path+"/"+string(rune('0'+a)))
		}
	}
}

func randomTrapGame(seed int64) (*game.State, int) {
	rng := rand.New(rand.NewSource(seed))
	g, _ := randgraph.ZeroInf(rng, randgraph.ZeroInfConfig{
		N: 14, M: 4, PEdge: 0.4, HardRatio: 0.5, PEdgeInf: 0.4,
	})
	order := rng.Perm(14)
	return game.New(g, order), 4
}

// TestBatchedSearchBitIdenticalToSequential is the determinism
// contract of Config.BatchLeaves: for every batch width, the tree
// after k simulations — statistics, priors, values, node count — is
// bit-identical to the sequential search's.
func TestBatchedSearchBitIdenticalToSequential(t *testing.T) {
	cases := []struct {
		name string
		st   func() *game.State
		m    int
		eval Evaluator
	}{
		{"fig2", func() *game.State { return game.New(fig2Graph(), []int{0, 1, 2}) }, 2, Uniform{}},
		{"trap", func() *game.State {
			g, order := trapGraph(12)
			return game.New(g, order)
		}, 2, rootBiasedEval{full: 15}},
		{"zeroinf", func() *game.State { st, _ := randomTrapGame(301); return st }, 4, Uniform{}},
	}
	const k = 150
	for _, c := range cases {
		ref := New(c.eval, c.m, Config{})
		stRef := c.st()
		ref.Run(stRef, k)
		for _, bl := range []int{1, 2, 4, 8, 32} {
			tree := New(&batchWrap{Evaluator: c.eval}, c.m, Config{BatchLeaves: bl})
			st := c.st()
			if got := tree.RunCtx(context.Background(), st, k); got != k {
				t.Fatalf("%s bl=%d: ran %d simulations, want %d", c.name, bl, got, k)
			}
			if st.Turn() != 0 || st.Acc() != 0 {
				t.Fatalf("%s bl=%d: state not restored", c.name, bl)
			}
			if ref.Nodes() != tree.Nodes() {
				t.Fatalf("%s bl=%d: nodes %d, want %d", c.name, bl, tree.Nodes(), ref.Nodes())
			}
			compareTrees(t, ref.root, tree.root, c.name)
			refPi, pi := ref.Policy(), tree.Policy()
			for a := range refPi {
				if math.Float64bits(refPi[a]) != math.Float64bits(pi[a]) {
					t.Fatalf("%s bl=%d: policy[%d] differs", c.name, bl, a)
				}
			}
		}
	}
}

// forwardEval evaluates through the network's trainable pass and the
// masked softmax — the scalar reference the engine behind
// (*net.PBQPNet).Evaluate and EvaluateBatch must match bit for bit.
type forwardEval struct{ n *net.PBQPNet }

func (e forwardEval) Evaluate(view gcn.View) (tensor.Vec, float64) {
	logits, value := e.n.Forward(view)
	return nn.Softmax(logits, net.Mask(view)), value
}

// TestBatchedSearchWithNetEngine runs the same contract end to end
// through the real network's engine (net.PBQPNet implements
// BatchEvaluator): sequential search on Evaluate and batched search on
// EvaluateBatch must both build, bit for bit, the tree the sequential
// search builds on the trainable pass.
func TestBatchedSearchWithNetEngine(t *testing.T) {
	_, m := randomTrapGame(302)
	n := net.New(net.Config{M: m, GCNLayers: 2, Hidden: 16, Blocks: 1, Seed: 303})

	st, _ := randomTrapGame(302)
	ref := New(forwardEval{n.Clone()}, m, Config{})
	ref.Run(st, 120)

	for _, bl := range []int{1, 8} {
		st, _ := randomTrapGame(302)
		tree := New(n, m, Config{BatchLeaves: bl})
		tree.Run(st, 120)
		if ref.Nodes() != tree.Nodes() {
			t.Fatalf("BatchLeaves %d: nodes %d, want %d", bl, tree.Nodes(), ref.Nodes())
		}
		compareTrees(t, ref.root, tree.root, "root")
	}
}

// TestBatchingActuallyBatches guards against the batching silently
// degenerating to per-leaf flushes: with a wide-enough tree most
// flushes must coalesce several leaves.
func TestBatchingActuallyBatches(t *testing.T) {
	st, m := randomTrapGame(304)
	bw := &batchWrap{Evaluator: Uniform{}}
	tree := New(bw, m, Config{BatchLeaves: 16})
	tree.Run(st, 200)
	most := 0
	for _, s := range bw.sizes {
		if s > most {
			most = s
		}
	}
	if most < 4 {
		t.Fatalf("largest microbatch = %d leaves, batching degenerated (sizes %v)", most, bw.sizes)
	}
}

// TestBatchedExhaustedSubtree re-runs the exhausted-subtree regression
// under leaf batching: the closed-subtree marking must survive
// speculation and replay.
func TestBatchedExhaustedSubtree(t *testing.T) {
	const k = 400
	g, order := trapGraph(40)
	st := game.New(g, order)
	tree := New(&batchWrap{Evaluator: rootBiasedEval{full: st.N()}}, 2, Config{BatchLeaves: 8})
	tree.Run(st, k)
	if tree.Nodes() < k-4 {
		t.Errorf("nodes = %d after %d simulations, want >= %d (budget burned on an exhausted subtree)", tree.Nodes(), k, k-4)
	}
	if pi := tree.Policy(); pi[0] != 0 {
		t.Errorf("exhausted branch still has policy mass: %v", pi)
	}
}
