package nn

import (
	"fmt"
	"math"

	"pbqprl/internal/tensor"
)

// Optimizer applies accumulated gradients to parameters.
type Optimizer interface {
	// Step updates every parameter from its accumulated gradient and
	// clears the gradients.
	Step(params []*Param)
}

// SGD is plain stochastic gradient descent with optional momentum.
type SGD struct {
	LR       float64
	Momentum float64
	vel      map[*Param]tensor.Vec
}

// NewSGD returns an SGD optimizer.
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, vel: make(map[*Param]tensor.Vec)}
}

// Step implements Optimizer.
func (s *SGD) Step(params []*Param) {
	for _, p := range params {
		if s.Momentum == 0 {
			p.W.AddScaled(-s.LR, p.G)
		} else {
			v, ok := s.vel[p]
			if !ok {
				v = tensor.NewVec(len(p.W))
				s.vel[p] = v
			}
			for i := range v {
				v[i] = s.Momentum*v[i] + p.G[i]
				p.W[i] -= s.LR * v[i]
			}
		}
		p.ZeroGrad()
	}
}

// Adam is the Adam optimizer (Kingma & Ba 2015), the paper's choice for
// training the networks.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	m, v                  map[*Param]tensor.Vec
}

// NewAdam returns an Adam optimizer with the standard β/ε defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Param]tensor.Vec), v: make(map[*Param]tensor.Vec),
	}
}

// Step implements Optimizer.
func (a *Adam) Step(params []*Param) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		m, ok := a.m[p]
		if !ok {
			m = tensor.NewVec(len(p.W))
			a.m[p] = m
		}
		v, ok := a.v[p]
		if !ok {
			v = tensor.NewVec(len(p.W))
			a.v[p] = v
		}
		for i, g := range p.G {
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
			mHat := m[i] / c1
			vHat := v[i] / c2
			p.W[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
		}
		p.ZeroGrad()
	}
}

// AdamState is the serializable snapshot of an Adam optimizer: the
// hyperparameters, the step count, and the first/second moment vectors
// in the order of the params slice passed to State. It is what a
// training checkpoint needs for a resumed run to take bit-identical
// optimizer steps.
type AdamState struct {
	LR, Beta1, Beta2, Eps float64
	T                     int
	M, V                  [][]float64
}

// State captures the optimizer's state for params. Parameters the
// optimizer has not stepped yet get zero moments, which is exactly the
// state a fresh Step would create for them.
func (a *Adam) State(params []*Param) AdamState {
	st := AdamState{LR: a.LR, Beta1: a.Beta1, Beta2: a.Beta2, Eps: a.Eps, T: a.t}
	for _, p := range params {
		st.M = append(st.M, momentCopy(a.m[p], len(p.W)))
		st.V = append(st.V, momentCopy(a.v[p], len(p.W)))
	}
	return st
}

// LoadState restores a snapshot taken by State, matching moments to
// params by position. The params slice must list the same parameters in
// the same order (same shapes) as the State call that produced st.
func (a *Adam) LoadState(params []*Param, st AdamState) error {
	if len(st.M) != len(params) || len(st.V) != len(params) {
		return fmt.Errorf("nn: adam state has %d/%d moment vectors, want %d", len(st.M), len(st.V), len(params))
	}
	for i, p := range params {
		if len(st.M[i]) != len(p.W) || len(st.V[i]) != len(p.W) {
			return fmt.Errorf("nn: adam state moment %d has length %d/%d, want %d", i, len(st.M[i]), len(st.V[i]), len(p.W))
		}
	}
	a.LR, a.Beta1, a.Beta2, a.Eps, a.t = st.LR, st.Beta1, st.Beta2, st.Eps, st.T
	a.m = make(map[*Param]tensor.Vec, len(params))
	a.v = make(map[*Param]tensor.Vec, len(params))
	for i, p := range params {
		a.m[p] = tensor.Vec(momentCopy(st.M[i], len(p.W)))
		a.v[p] = tensor.Vec(momentCopy(st.V[i], len(p.W)))
	}
	return nil
}

// momentCopy returns a copy of v, or a zero vector of length n when v
// is nil.
func momentCopy(v []float64, n int) []float64 {
	out := make([]float64, n)
	copy(out, v)
	return out
}
