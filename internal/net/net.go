// Package net assembles the paper's neural network f_θ (Section IV-D):
// GCN layers produce the graph embedding, which is pooled to a fixed-size
// feature vector, passed through a residual (ResNet-style) torso with
// batch normalization, and split into two heads — the P-Net (a
// fully-connected layer feeding a softmax over the m colors) and the
// V-Net (a fully-connected layer feeding tanh).
//
// The paper concatenates all n per-vertex embeddings into an m×n matrix
// before the ResNet; n varies per state, which a fixed fully-connected
// torso cannot consume, so this implementation pools instead: the
// embedding of the next vertex to color, the mean embedding of the
// remaining graph, and two scalar summaries (graph size, liberty of the
// next vertex). See DESIGN.md for the rationale.
//
// Convention: in every View passed to this package, active vertex 0 is
// the next vertex to color (reduced states always expose the uncolored
// suffix in coloring order).
package net

import (
	"bytes"
	"io"
	"math/rand"

	"pbqprl/internal/gcn"
	"pbqprl/internal/nn"
	"pbqprl/internal/tensor"
)

// Config sizes a PBQPNet.
type Config struct {
	// M is the color count (register count, plus one if spill is an
	// option); it fixes the GCN width and the policy head size.
	M int
	// GCNLayers is the number of message-passing layers (default 3).
	GCNLayers int
	// Hidden is the torso width (default 64).
	Hidden int
	// Blocks is the number of residual torso blocks (default 2).
	Blocks int
	// Seed initializes the weights deterministically.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.GCNLayers == 0 {
		c.GCNLayers = 3
	}
	if c.Hidden == 0 {
		c.Hidden = 64
	}
	if c.Blocks == 0 {
		c.Blocks = 2
	}
	return c
}

// PBQPNet is the combined policy/value network.
type PBQPNet struct {
	cfg      Config
	gcn      *gcn.GCN
	torso    *torso
	training bool // between SetTraining(true) and SetTraining(false)

	slot Slot // Forward's and Backward's own
	acts acts // what Heads leaves for HeadsBackward

	// eng is the read-only inference engine (engine.go) behind
	// Evaluate. Like the Forward caches it makes the net
	// single-goroutine.
	eng engine
}

// Slot is one sample's share of a gradient step: the view, the GCN tape
// Embed fills from it and the dL/dH HeadsBackward leaves for Backprop. A
// gradient step keeps its Slots and reuses them from sample to sample;
// the zero value is ready.
type Slot struct {
	view  gcn.View
	tape  gcn.Tape
	dH    []tensor.Vec // dL/dH: row headers over dRows' two rows,
	dRows tensor.Vec   // the target vertex's and the one every other vertex shares
}

// New builds a PBQPNet from cfg.
func New(cfg Config) *PBQPNet {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	m, hidden := cfg.M, cfg.Hidden
	in := 2*m + 2
	t := &torso{in: nn.NewDense(rng, in, hidden), inBN: nn.NewBatchNorm(hidden)}
	for i := 0; i < cfg.Blocks; i++ {
		t.blocks = append(t.blocks, block{
			d1: nn.NewDense(rng, hidden, hidden), bn1: nn.NewBatchNorm(hidden),
			d2: nn.NewDense(rng, hidden, hidden), bn2: nn.NewBatchNorm(hidden),
		})
	}
	// The GCN draws its weights between the body's and the heads': the
	// order every seed's network has been drawn in.
	g := gcn.New(rng, m, cfg.GCNLayers)
	t.policy = nn.NewDense(rng, hidden, m)
	t.value = nn.NewDense(rng, hidden, 1)
	return &PBQPNet{
		cfg:   cfg,
		gcn:   g,
		torso: t,
		acts:  newActs(in, hidden, cfg.Blocks, m),
		eng:   engine{acts: newActs(in, hidden, cfg.Blocks, m), mask: make([]bool, m)},
	}
}

// Cfg returns the configuration the network was built with.
func (p *PBQPNet) Cfg() Config { return p.cfg }

// SetTraining switches batch-normalization statistics updates. The
// toggle brackets every weight update (selfplay trains between search
// phases), so it doubles as the engine's weight-change signal.
func (p *PBQPNet) SetTraining(training bool) {
	p.training = training
	p.invalidateEngine()
}

// Forward runs the network on view (active vertex 0 is the next to
// color) and returns the raw policy logits and the value in (-1, 1):
// Embed then Heads on the net's own slot. The logits alias the net and
// are valid until its next Forward or Heads.
func (p *PBQPNet) Forward(view gcn.View) (logits tensor.Vec, value float64) {
	p.Embed(&p.slot, view)
	return p.Heads(&p.slot)
}

// Embed runs the GCN over view on s's tape. It reads the weights and
// writes only s, so the samples of a minibatch embed concurrently, one
// goroutine per Slot, while nothing updates the network.
//
// Once s has grown it allocates nothing (TestTapeSteadyStateAllocations in gcn).
func (p *PBQPNet) Embed(s *Slot, view gcn.View) {
	s.view = view
	p.gcn.ForwardTape(&s.tape, view)
}

// Heads pools s's embedding and runs the torso and both heads, which
// leave their activations in the net for HeadsBackward and, in training
// mode, move the batch-normalization statistics: one goroutine, one
// sample at a time, in the order the samples are to count.
// HeadsBackward must follow before the next sample's Heads. The logits
// alias the net and are valid until its next Heads.
func (p *PBQPNet) Heads(s *Slot) (logits tensor.Vec, value float64) {
	a := &p.acts
	poolInto(a.x, s.view, s.tape.Rows())
	p.torso.forward(a, p.training)
	return a.logits, a.value
}

// poolInto writes the fixed-size torso input into the 2m+2 vector f:
// target embedding ‖ mean embedding ‖ [n scale, target liberty share].
// The mean embedding accumulates the per-vertex sum first and divides
// once per element — n−1 fewer divisions and n−1 fewer roundings per
// element than dividing every term, and the same single-division mean
// the GCN message pass computes. (The old per-term x/n accumulation
// was the slower and noisier of the two; switching changes forward
// outputs in the last bits, see the checkpoint-compatibility note in
// DESIGN.md.)
func poolInto(f tensor.Vec, view gcn.View, h []tensor.Vec) {
	m := view.M()
	copy(f[:m], h[0])
	mean := f[m : 2*m]
	mean.Zero()
	for _, hv := range h {
		mean.AddInPlace(hv)
	}
	mean.Scale(1 / float64(len(h)))
	f[2*m] = float64(len(h)) / 100.0
	f[2*m+1] = float64(view.Vec(0).Liberty()) / float64(m)
}

// Evaluate returns the masked prior distribution p̂(·|s) over colors and
// the value estimate v̂ for the state presented by view. Colors whose
// vertex cost is infinite get probability zero.
//
// It runs on the read-only inference engine (engine.go): bit-identical
// to Forward followed by nn.Softmax over Mask(view), but it leaves the
// caches Backward reads alone and its one allocation is the prior,
// which the caller owns (mcts keeps it on the tree node). The network
// must be in inference mode: between SetTraining(true) and
// SetTraining(false) the batch-normalization statistics are moving and
// Evaluate panics rather than evaluate against them.
//
// The prior is its one allocation (TestEvaluateAllocatesOnlyThePrior).
func (p *PBQPNet) Evaluate(view gcn.View) (prior tensor.Vec, value float64) {
	// the caller-owned result prior, Evaluate's single allocation
	prior = make(tensor.Vec, p.cfg.M)
	return prior, p.EvaluateInto(view, prior)
}

// Mask returns the legal-color mask of the next vertex to color. A
// fully saturated vertex (every color infinite — a dead end the search
// still evaluates before detecting) yields the all-false mask, which
// nn.Softmax maps to the all-zero prior rather than NaN.
func Mask(view gcn.View) []bool {
	return MaskInto(make([]bool, len(view.Vec(0))), view)
}

// MaskInto is Mask writing into a caller-provided slice, which it
// returns.
func MaskInto(mask []bool, view gcn.View) []bool {
	for i, c := range view.Vec(0) {
		mask[i] = !c.IsInf()
	}
	return mask
}

// Backward accumulates gradients for the most recent Forward given
// dL/dlogits and dL/dvalue (pre-tanh gradients are handled internally):
// HeadsBackward, Backprop and Accumulate on the net's own slot.
func (p *PBQPNet) Backward(dLogits tensor.Vec, dValue float64) {
	p.HeadsBackward(&p.slot, dLogits, dValue)
	p.Backprop(&p.slot)
	p.Accumulate(&p.slot)
}

// HeadsBackward back-propagates through the heads and the torso for the
// sample Heads last ran, accumulating their parameter gradients, and
// leaves dL/dH of the embedding in s. Ordered like Heads.
func (p *PBQPNet) HeadsBackward(s *Slot, dLogits tensor.Vec, dValue float64) {
	gf := p.torso.backward(&p.acts, dLogits, dValue)
	// the mean's share for every vertex, the target's own on top
	m, n := p.cfg.M, s.view.N()
	if s.dRows == nil {
		s.dRows = tensor.NewVec(2 * m)
	}
	first, rest := s.dRows[:m], s.dRows[m:]
	first.Zero()
	first.AddScaled(1/float64(n), gf[m:2*m])
	copy(rest, first)
	first.AddInPlace(gf[:m])
	s.dH = append(s.dH[:0], first)
	for v := 1; v < n; v++ {
		s.dH = append(s.dH, rest)
	}
}

// Backprop carries s's dL/dH back through the GCN's activations on s's
// tape and touches no parameter: concurrent like Embed.
//
// Once s has grown it allocates nothing (TestTapeSteadyStateAllocations in gcn).
func (p *PBQPNet) Backprop(s *Slot) { p.gcn.Backprop(&s.tape, s.dH) }

// Accumulate adds s's terms to the GCN's parameter gradients: one slot
// at a time, in sample order. It shares no tensor with Heads and
// HeadsBackward, so one sample's may run beside another's.
//
// It allocates nothing (TestTapeSteadyStateAllocations in gcn).
func (p *PBQPNet) Accumulate(s *Slot) { p.gcn.Accumulate(&s.tape) }

// Params returns every trainable parameter.
func (p *PBQPNet) Params() []*nn.Param { return append(p.gcn.Params(), p.torso.params()...) }

// tensors returns every parameter and state tensor in deterministic
// order, for checkpointing and cloning.
func (p *PBQPNet) tensors() []tensor.Vec {
	var ts []tensor.Vec
	for _, param := range p.gcn.Params() {
		ts = append(ts, param.W)
	}
	return append(ts, p.torso.tensors()...)
}

// Save serializes the network weights and normalization statistics.
func (p *PBQPNet) Save(w io.Writer) error { return nn.SaveTensors(w, p.tensors()) }

// Load restores weights saved by Save into an identically configured
// network.
func (p *PBQPNet) Load(r io.Reader) error {
	p.invalidateEngine()
	return nn.LoadTensors(r, p.tensors())
}

// SaveBytes serializes the network into a byte slice (the Save format),
// for embedding in checkpoints or comparing two networks exactly.
func (p *PBQPNet) SaveBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// LoadBytes restores weights serialized by SaveBytes (or Save).
func (p *PBQPNet) LoadBytes(data []byte) error { return p.Load(bytes.NewReader(data)) }

// Clone returns an independent copy of the network (same architecture,
// copied weights and statistics).
func (p *PBQPNet) Clone() *PBQPNet {
	c := New(p.cfg)
	c.CopyFrom(p)
	return c
}

// CopyFrom copies all weights and statistics from src; architectures
// must match (they do whenever both nets were built from the same Config).
func (p *PBQPNet) CopyFrom(src *PBQPNet) {
	p.invalidateEngine()
	dst, s := p.tensors(), src.tensors()
	if len(dst) != len(s) {
		panic("net: CopyFrom across different architectures")
	}
	for i := range dst {
		if len(dst[i]) != len(s[i]) {
			panic("net: CopyFrom across different architectures")
		}
		copy(dst[i], s[i])
	}
}
