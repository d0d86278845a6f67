// Regression test for the checkpoint-encoding audit: the serialized
// form of a replay sample must not depend on the order in which the
// view's edge table lists a vertex's edges. freezeSample guarantees
// this by sorting neighbors before emitting edge matrices; if anyone
// reintroduces map-order iteration in the encode path, this test (and
// the determinism analyzer) catches it.
package selfplay

import (
	"bytes"
	"encoding/gob"
	"testing"

	"pbqprl/internal/cost"
	"pbqprl/internal/gcn"
	"pbqprl/internal/tensor"
)

// orderedView builds a four-vertex complete graph whose edge table
// lists each vertex's edges in the given key order.
func orderedView(keys []int) gcn.View {
	mat := func(v float64) *tensor.Mat {
		m := tensor.NewMat(2, 2)
		m.W[0] = v
		return m
	}
	tbl := &gcn.EdgeTable{Start: []int32{0}}
	var vecs []cost.Vector
	for i := 0; i < 4; i++ {
		vec := cost.NewVector(2)
		vec[0] = cost.Cost(i)
		vecs = append(vecs, vec)
		for _, j := range keys {
			if j == i {
				continue
			}
			// derive the matrix from the (i, j) pair only, so both
			// orders describe the same logical graph
			tbl.AddEdge(j, gcn.Pack(mat(float64(10*i+j))))
		}
		tbl.Start = append(tbl.Start, int32(len(tbl.Nbr)))
	}
	return gcn.NewView(tbl, 0, 2, vecs).Freeze()
}

func gobBytes(t *testing.T, rs replaySample) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFreezeSampleIgnoresMapInsertionOrder(t *testing.T) {
	pi := tensor.Vec{0.25, 0.75}
	fwd := Sample{View: orderedView([]int{0, 1, 2, 3}), Pi: pi, Z: 1}
	rev := Sample{View: orderedView([]int{3, 2, 1, 0}), Pi: pi, Z: 1}
	a := gobBytes(t, freezeSample(fwd))
	b := gobBytes(t, freezeSample(rev))
	if !bytes.Equal(a, b) {
		t.Error("freezeSample bytes depend on the table's edge order")
	}
	// thaw and refreeze: the round trip must also be byte-stable
	c := gobBytes(t, freezeSample(thawSample(freezeSample(rev))))
	if !bytes.Equal(a, c) {
		t.Error("freeze/thaw round trip changed the encoding")
	}
}
