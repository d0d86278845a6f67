// Regression test for the checkpoint-encoding audit: the serialized
// form of a replay sample must not depend on the insertion order of the
// view's edge-matrix maps or the presentation order of neighbor lists.
// freezeSample guarantees this by sorting neighbors before emitting
// edge matrices; if anyone reintroduces map-order iteration in the
// encode path, this test (and the determinism analyzer) catches it.
package selfplay

import (
	"bytes"
	"encoding/gob"
	"testing"

	"pbqprl/internal/cost"
	"pbqprl/internal/tensor"
)

// mapView is a gcn.View that keeps its edge matrices in maps and its
// neighbors in whatever order it was handed them.
type mapView struct {
	m    int
	vecs []cost.Vector
	nbrs [][]int
	mats []map[int]*tensor.Mat
}

func (v *mapView) N() int                   { return len(v.vecs) }
func (v *mapView) M() int                   { return v.m }
func (v *mapView) Vec(i int) cost.Vector    { return v.vecs[i] }
func (v *mapView) Nbrs(i int) []int         { return v.nbrs[i] }
func (v *mapView) Mat(i, j int) *tensor.Mat { return v.mats[i][j] }

// orderedView builds a four-vertex mapView whose neighbor slices and
// edge-matrix maps are populated in the given key order.
func orderedView(keys []int) *mapView {
	mat := func(v float64) *tensor.Mat {
		m := tensor.NewMat(2, 2)
		m.W[0] = v
		return m
	}
	v := &mapView{m: 2}
	for i := 0; i < 4; i++ {
		vec := cost.NewVector(2)
		vec[0] = cost.Cost(i)
		v.vecs = append(v.vecs, vec)
		nbrs := make([]int, 0, len(keys))
		mats := make(map[int]*tensor.Mat, len(keys))
		for _, j := range keys {
			if j == i {
				continue
			}
			nbrs = append(nbrs, j)
			// derive the matrix from the (i, j) pair only, so both
			// insertion orders describe the same logical graph
			mats[j] = mat(float64(10*i + j))
		}
		v.nbrs = append(v.nbrs, nbrs)
		v.mats = append(v.mats, mats)
	}
	return v
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
		t.Error("freezeSample bytes depend on map insertion / neighbor order")
	}
	// thaw and refreeze: the round trip must also be byte-stable
	c := gobBytes(t, freezeSample(thawSample(freezeSample(rev))))
	if !bytes.Equal(a, c) {
		t.Error("freeze/thaw round trip changed the encoding")
	}
}
