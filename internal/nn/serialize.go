package nn

import (
	"encoding/gob"
	"fmt"
	"io"

	"pbqprl/internal/tensor"
)

// Stateful is implemented by modules with non-trainable state that must
// survive checkpointing (BatchNorm running statistics).
type Stateful interface {
	// StateVecs returns the state tensors; they are serialized and
	// restored in place, in order.
	StateVecs() []tensor.Vec
}

// StateVecs implements Stateful for BatchNorm.
func (bn *BatchNorm) StateVecs() []tensor.Vec { return []tensor.Vec{bn.mean, bn.vari} }

// Visit calls f on m and, recursively, on every submodule of Sequential
// and Residual containers, in definition order.
func Visit(m Module, f func(Module)) {
	f(m)
	switch t := m.(type) {
	case *Sequential:
		for _, sub := range t.mods {
			Visit(sub, f)
		}
	case *Residual:
		Visit(t.body, f)
	}
}

// snapshot is the serialized form of a list of tensors. SaveTensors
// writes every tensor to Params and leaves State empty, but State stays:
// gob writes each field name into the stream's type descriptor, so
// dropping it would change the bytes of every saved network.
type snapshot struct {
	Params [][]float64
	State  [][]float64
}

// Collect gathers a module's parameter and state tensors in
// deterministic order, for callers that compose Modules with non-Module
// components (the GCN) and serialize everything themselves.
func Collect(m Module) (params, state []tensor.Vec) { return collect(m) }

// SaveTensors serializes an ordered list of tensors.
func SaveTensors(w io.Writer, tensors []tensor.Vec) error {
	snap := snapshot{}
	for _, t := range tensors {
		snap.Params = append(snap.Params, t)
	}
	return gob.NewEncoder(w).Encode(snap)
}

// LoadTensors restores tensors saved by SaveTensors, in order, in place.
func LoadTensors(r io.Reader, tensors []tensor.Vec) error {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("nn: decode checkpoint: %w", err)
	}
	if len(snap.Params) != len(tensors) {
		return fmt.Errorf("nn: checkpoint has %d tensors, want %d", len(snap.Params), len(tensors))
	}
	for i, t := range tensors {
		if len(snap.Params[i]) != len(t) {
			return fmt.Errorf("nn: tensor %d has length %d, want %d", i, len(snap.Params[i]), len(t))
		}
		copy(t, snap.Params[i])
	}
	return nil
}

// collect gathers parameter and state tensors in deterministic order.
func collect(m Module) (params, state []tensor.Vec) {
	Visit(m, func(sub Module) {
		switch t := sub.(type) {
		case *Sequential, *Residual:
			// containers contribute via their children
		default:
			for _, p := range t.Params() {
				params = append(params, p.W)
			}
			if s, ok := t.(Stateful); ok {
				state = append(state, s.StateVecs()...)
			}
		}
	})
	return params, state
}
