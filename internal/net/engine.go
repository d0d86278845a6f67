package net

// Read-only evaluation: Evaluate and EvaluateInto. The engine runs the
// same computation as the trainable pass — GCN embedding, pooling,
// torso, heads (Forward), then the masked softmax — through the
// read-only inference paths (gcn.Infer, nn.Infer) and reusable
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
	gsc    gcn.Scratch
	isc    nn.InferScratch
	pooled tensor.Vec // the 2m+2 torso input
	mask   []bool
}

// invalidateEngine drops every engine cache derived from the weights.
func (p *PBQPNet) invalidateEngine() { p.eng.gsc.InvalidateWeights() }

// inferHeads runs the read-only pass up to the raw head outputs: the
// logits row and the value, both aliasing the arena.
//
//pbqpvet:hotpath
func (p *PBQPNet) inferHeads(view gcn.View) (logits tensor.Vec, value float64) {
	e := &p.eng
	poolInto(e.pooled, view, p.gcn.Infer(view, &e.gsc))
	e.isc.Reset()
	t := nn.Infer(p.torso, e.pooled, &e.isc)
	return nn.Infer(p.policy, t, &e.isc), nn.Infer(p.value, t, &e.isc)[0]
}

// EvaluateInto is Evaluate writing the prior into a caller-provided
// length-m vector: no allocation in the steady state.
//
//pbqpvet:hotpath
func (p *PBQPNet) EvaluateInto(view gcn.View, prior tensor.Vec) (value float64) {
	logits, value := p.inferHeads(view)
	nn.SoftmaxInto(prior, logits, MaskInto(p.eng.mask, view))
	return value
}
