package nn

import (
	"math"

	"pbqprl/internal/tensor"
)

// Softmax returns the softmax of logits in a numerically stable way.
// Entries where mask is false are treated as -∞ (probability zero); a
// nil mask enables every entry. If every entry is masked — or every
// unmasked logit is itself -∞, which would otherwise turn the
// denominator into 0/0 — the result is all zeros: the defined
// "distribution over nothing" that callers (MCTS dead-end handling)
// already treat as "no move", instead of a NaN prior.
func Softmax(logits tensor.Vec, mask []bool) tensor.Vec {
	out := make(tensor.Vec, len(logits))
	SoftmaxInto(out, logits, mask)
	return out
}

// SoftmaxInto is Softmax writing into out (same length as logits)
// without allocating; out is fully overwritten. The two are
// bit-identical.
func SoftmaxInto(out, logits tensor.Vec, mask []bool) {
	out.Zero()
	maxv := math.Inf(-1)
	any := false
	for i, v := range logits {
		if mask != nil && !mask[i] {
			continue
		}
		any = true
		if v > maxv {
			maxv = v
		}
	}
	// A fully saturated vertex (every color infinite) produces an
	// all-false mask; an all--∞ logit row produces maxv = -∞ and
	// exp(-∞ − -∞) = NaN. Both collapse to the all-zero distribution.
	if !any || math.IsInf(maxv, -1) {
		return
	}
	sum := 0.0
	for i, v := range logits {
		if mask != nil && !mask[i] {
			continue
		}
		e := math.Exp(v - maxv)
		out[i] = e
		sum += e
	}
	// sum ≥ 1 whenever maxv is finite; a NaN logit is the only way
	// here, and zeros beat NaN probabilities downstream.
	if math.IsNaN(sum) {
		out.Zero()
		return
	}
	for i := range out {
		out[i] /= sum
	}
}

// CrossEntropy returns −Σ target_i · log p_i, the policy loss term of
// the paper's loss function. Zero-probability entries with zero target
// contribute nothing.
func CrossEntropy(p, target tensor.Vec) float64 {
	l := 0.0
	for i, t := range target {
		// One-hot targets carry exact zeros: skip their 0·log(p) terms.
		if t == 0 {
			continue
		}
		l -= t * math.Log(math.Max(p[i], 1e-12))
	}
	return l
}

// CrossEntropyGrad returns dL/dlogits for L = −Σ target·log softmax(logits):
// the well-known p − target, with masked entries forced to zero.
func CrossEntropyGrad(p, target tensor.Vec, mask []bool) tensor.Vec {
	g := make(tensor.Vec, len(p))
	for i := range p {
		if mask != nil && !mask[i] {
			continue
		}
		g[i] = p[i] - target[i]
	}
	return g
}

// MSE returns (a − b)².
func MSE(a, b float64) float64 { return (a - b) * (a - b) }

// MSEGrad returns d(a−b)²/da = 2(a − b).
func MSEGrad(a, b float64) float64 { return 2 * (a - b) }

// L2Penalty returns c·‖θ‖² over all parameters (the regularization term
// of the paper's loss); AddL2Grad accumulates its gradient 2cθ.
func L2Penalty(params []*Param, c float64) float64 {
	s := 0.0
	for _, p := range params {
		s += p.W.Dot(p.W)
	}
	return c * s
}

// AddL2Grad adds the gradient of L2Penalty into the parameter gradients.
func AddL2Grad(params []*Param, c float64) {
	for _, p := range params {
		p.G.AddScaled(2*c, p.W)
	}
}
