package nn

// Read-only inference. Infer walks a module tree built from this
// package's concrete types and evaluates one input vector, without
// touching the activation caches that Forward keeps for Backward and
// without updating BatchNorm statistics. Every output element is
// computed by exactly the operations (in the same order) Forward
// performs, so Infer is bit-identical to Forward in inference mode.
// Buffers come from an InferScratch arena owned by the caller; the
// steady-state pass allocates nothing.

import (
	"math"

	"pbqprl/internal/tensor"
)

// InferScratch is the buffer arena of one Infer caller. A scratch must
// not be shared between goroutines; layers take buffers from it in
// deterministic walk order, so after the first call on a given
// architecture every take is a reuse.
type InferScratch struct {
	bufs []tensor.Vec
	next int
}

// Reset rewinds the arena; the next Infer call reuses the buffers from
// the start. Callers reset once per evaluation.
func (sc *InferScratch) Reset() { sc.next = 0 }

// take returns the next arena buffer at length n, reusing its backing
// array whenever the capacity suffices.
func (sc *InferScratch) take(n int) tensor.Vec {
	if sc.next == len(sc.bufs) {
		sc.bufs = append(sc.bufs, nil)
	}
	if cap(sc.bufs[sc.next]) < n {
		//pbqpvet:ignore hotalloc arena growth on the first pass over a new architecture; steady state reuses the buffer
		sc.bufs[sc.next] = tensor.NewVec(n)
	}
	sc.next++
	return sc.bufs[sc.next-1][:n]
}

// Infer evaluates mod on x and returns the result in an arena buffer,
// valid until the next Reset. The module tree is read-only during the
// walk: activation caches stay untouched and BatchNorm uses its frozen
// statistics. It panics on a module type it does not know or on a
// BatchNorm left in training mode — evaluating through the read-only
// path while statistics are being updated would silently diverge from
// Forward.
//
//pbqpvet:hotpath
func Infer(mod Module, x tensor.Vec, sc *InferScratch) tensor.Vec {
	switch m := mod.(type) {
	case *Dense:
		w := tensor.Mat{R: m.Out, C: m.In, W: m.w.W}
		out := sc.take(m.Out)
		w.MulVecInto(out, x)
		out.AddInPlace(m.b.W)
		return out
	case *ReLU:
		out := sc.take(len(x))
		for i, v := range x {
			if v < 0 {
				out[i] = 0
			} else {
				out[i] = v
			}
		}
		return out
	case *Tanh:
		out := sc.take(len(x))
		for i, v := range x {
			out[i] = math.Tanh(v)
		}
		return out
	case *BatchNorm:
		if m.training {
			// Training-mode inference would silently diverge from
			// Forward's frozen-statistics result.
			panic("nn: Infer through a training-mode BatchNorm")
		}
		out := sc.take(len(x))
		for i, v := range x {
			// identical expression (and rounding order) to Forward
			out[i] = m.gamma.W[i]*(v-m.mean[i])/math.Sqrt(m.vari[i]+m.eps) + m.beta.W[i]
		}
		return out
	case *Sequential:
		for _, sub := range m.mods {
			x = Infer(sub, x, sc)
		}
		return x
	case *Residual:
		// body buffers come from later arena slots, so x stays intact
		// for the skip connection
		y := Infer(m.body, x, sc)
		out := sc.take(len(x))
		for i := range out {
			out[i] = y[i] + x[i]
		}
		return out
	default:
		panic("nn: Infer on unknown module type")
	}
}
