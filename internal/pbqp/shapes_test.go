package pbqp

import (
	"bytes"
	"strconv"
	"testing"
	"time"
)

// Adversarial shapes: inputs on which a row kept as a plain sorted
// slice is quadratic in one vertex's degree. Each is timed against a
// same-size control in the same test, and may cost at most
// maxShapeRatio times as much. internal/reduce holds the two shapes a
// reduction makes.
const maxShapeRatio = 8

// pairTimes runs shape and control reps times each, alternately, and
// returns the fastest run of each, so that a noisy neighbour slows both
// sides rather than one.
func pairTimes(reps int, shape, control func()) (ts, tc time.Duration) {
	ts, tc = time.Duration(1<<63-1), time.Duration(1<<63-1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		shape()
		ts = min(ts, time.Since(start))
		start = time.Now()
		control()
		tc = min(tc, time.Since(start))
	}
	return ts, tc
}

// starText is a star of the given leaves around hub 0, one color, every
// edge listed hub-first, leaves in descending or ascending order.
func starText(leaves int, descending bool) []byte {
	b := []byte("pbqp " + strconv.Itoa(leaves+1) + " 1\n")
	for i := 1; i <= leaves; i++ {
		leaf := i
		if descending {
			leaf = leaves + 1 - i
		}
		b = append(b, "e 0 "...)
		b = strconv.AppendInt(b, int64(leaf), 10)
		b = append(b, " 1\n"...)
	}
	return b
}

// TestReadWriteDescendingStar: a hub whose edges arrive in descending
// order is one sort for Read, not an insert at the front of its row per
// line. 200 000 leaves (2.6 MB), Read then Write, against the
// ascending-order star, on a 2-vCPU Xeon with go1.24.0: the map-backed
// graph took 0.17–0.21 s against 0.16–0.18 s, the row layout 0.08–0.16 s
// against 0.07–0.15 s; a row kept sorted line by line took 54 s (472×),
// and installing each line through the row's tail 3.2×.
func TestReadWriteDescendingStar(t *testing.T) {
	const leaves = 200_000
	var written [2]bytes.Buffer
	readWrite := func(text []byte, out *bytes.Buffer) func() {
		return func() {
			g, err := Read(bytes.NewReader(text))
			if err != nil {
				t.Fatal(err)
			}
			out.Reset()
			if err := Write(out, g); err != nil {
				t.Fatal(err)
			}
		}
	}
	ts, tc := pairTimes(3, readWrite(starText(leaves, true), &written[0]), readWrite(starText(leaves, false), &written[1]))
	if !bytes.Equal(written[0].Bytes(), written[1].Bytes()) {
		t.Fatal("the two orders of one star were written differently")
	}
	t.Logf("descending star %v, ascending star %v", ts, tc)
	if ts > maxShapeRatio*tc {
		t.Fatalf("Read+Write of a descending star took %v, %.1f× the ascending star's %v (at most %d×)",
			ts, float64(ts)/float64(tc), tc, maxShapeRatio)
	}
}
