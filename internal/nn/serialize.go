package nn

import (
	"encoding/gob"
	"fmt"
	"io"

	"pbqprl/internal/tensor"
)

// snapshot is the serialized form of a list of tensors. SaveTensors
// writes every tensor to Params and leaves State empty, but State stays:
// gob writes each field name into the stream's type descriptor, so
// dropping it would change the bytes of every saved network.
type snapshot struct {
	Params [][]float64
	State  [][]float64
}

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
