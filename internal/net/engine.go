package net

// Read-only evaluation: Evaluate and EvaluateInto. The engine runs the
// same computation as the trainable pass — GCN embedding, pooling,
// torso, heads (Forward), then the masked softmax — through gcn.Infer,
// the torso's one forward pass on activations of its own, and reusable
// scratch buffers. Its contract is bit-identity: a view's (prior,
// value) is bit-for-bit what Forward(view) followed by
// nn.Softmax(logits, Mask(view)) gives, whatever was evaluated before
// it and however warm the memo tables are.
//
// The engine shares the owning net's single-goroutine discipline (as
// do the Forward caches), and every Clone has its own, which starts
// cold. Weight-derived caches are dropped whenever the weights can have
// changed: SetTraining (which brackets every training step), Load, and
// CopyFrom all invalidate.

import (
	"pbqprl/internal/gcn"
	"pbqprl/internal/nn"
	"pbqprl/internal/tensor"
)

// engine is the scratch state of the read-only evaluation path.
type engine struct {
	gsc  gcn.Scratch
	acts acts
	mask []bool
}

// invalidateEngine drops every engine cache derived from the weights.
func (p *PBQPNet) invalidateEngine() { p.eng.gsc.InvalidateWeights() }

// EvaluateInto is Evaluate writing the prior into a caller-provided
// length-m vector: no allocation in the steady state. It panics on a
// net in training mode: its batch-normalization statistics are moving,
// and an evaluation against them would not be the one Forward gives
// once training ends.
//
// It allocates nothing (TestEvaluateIntoAllocFree).
func (p *PBQPNet) EvaluateInto(view gcn.View, prior tensor.Vec) (value float64) {
	if p.training {
		panic("net: Evaluate on a training-mode network")
	}
	e := &p.eng
	poolInto(e.acts.x, view, p.gcn.Infer(view, &e.gsc))
	p.torso.forward(&e.acts, false)
	nn.SoftmaxInto(prior, e.acts.logits, MaskInto(e.mask, view))
	return e.acts.value
}
