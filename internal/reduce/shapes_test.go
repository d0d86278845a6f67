package reduce

import (
	"testing"
	"time"

	"pbqprl/internal/cost"
	"pbqprl/internal/pbqp"
)

// Adversarial shapes for the reduction: a star losing its leaves and an
// R2 fan, on which a graph row kept as a plain sorted slice is
// quadratic in the hub's degree (internal/pbqp holds the reader's
// shape). Each is timed against a path with the same vertex count and
// may cost at most maxShapeRatio times as much.
const maxShapeRatio = 8

var shapeEdge = cost.NewMatrixFrom([][]cost.Cost{{1, 2}, {3, 1}})

// starGraph is hub 0 with leaves 1..leaves.
func starGraph(leaves int) *pbqp.Graph {
	g := pbqp.New(leaves+1, 2)
	for v := 1; v <= leaves; v++ {
		g.SetEdgeCost(0, v, shapeEdge)
	}
	return g
}

// pathGraph is 0 — 1 — … — n-1.
func pathGraph(n int) *pbqp.Graph {
	g := pbqp.New(n, 2)
	for v := 1; v < n; v++ {
		g.SetEdgeCost(v-1, v, shapeEdge)
	}
	return g
}

// fanGraph is hub 0, z_1..z_n = 1..n on a cycle (degree 2 there), and
// u_i = n+i linking the hub to z_{n+1-i}. The u are the only vertices
// of degree ≤ 2 and go in id order, so R2 folds each into a new edge
// (0, z) with z descending: an insert at the front of the hub's row
// every step.
func fanGraph(n int) *pbqp.Graph {
	g := pbqp.New(2*n+1, 2)
	for z := 1; z <= n; z++ {
		g.SetEdgeCost(z, z%n+1, shapeEdge)
	}
	for i := 1; i <= n; i++ {
		g.SetEdgeCost(0, n+i, shapeEdge)
		g.SetEdgeCost(n+i, n+1-i, shapeEdge)
	}
	return g
}

// pairTimes runs shape and control reps times each, alternately, and
// returns the fastest run of each.
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

func checkShapeRatio(t *testing.T, name string, ts, tc time.Duration) {
	t.Helper()
	t.Logf("%s %v, path %v", name, ts, tc)
	if ts > maxShapeRatio*tc {
		t.Fatalf("reducing the %s took %v, %.1f× a same-size path's %v (at most %d×)",
			name, ts, float64(ts)/float64(tc), tc, maxShapeRatio)
	}
}

// TestReduceStar: R1 takes a 200 000-leaf star's leaves in id order,
// each from the front of the hub's row. On a 2-vCPU Xeon with go1.24.0
// the map-backed graph took 0.13–0.28 s against the path's 0.13–0.15 s,
// the row layout 0.07–0.10 s against 0.07–0.14 s; a row kept sorted by
// shifting took 15.1 s (91×).
func TestReduceStar(t *testing.T) {
	const leaves = 200_000
	star, path := starGraph(leaves), pathGraph(leaves+1)
	var r *Reduction
	ts, tc := pairTimes(3, func() { r = Apply(star) }, func() { Apply(path) })
	if r.Eliminated != leaves+1 {
		t.Fatalf("eliminated %d of %d star vertices", r.Eliminated, leaves+1)
	}
	checkShapeRatio(t, "star", ts, tc)
}

// TestReduceFan: 100 000 R2 steps, each inserting at the front of the
// hub's row. On a 2-vCPU Xeon with go1.24.0 the map-backed graph took
// 0.11–0.17 s against the path's 0.11–0.23 s, the row layout
// 0.16–0.24 s against 0.11–0.14 s (its tail is scanned and merged in
// √len steps); a row kept sorted by shifting took 37.9 s (326×).
func TestReduceFan(t *testing.T) {
	const n = 100_000
	fan, path := fanGraph(n), pathGraph(2*n+1)
	var r *Reduction
	ts, tc := pairTimes(3, func() { r = Apply(fan) }, func() { Apply(path) })
	if r.Eliminated != n || r.Graph.Degree(0) != n {
		t.Fatalf("fan: eliminated %d, hub degree %d, want %d and %d", r.Eliminated, r.Graph.Degree(0), n, n)
	}
	checkShapeRatio(t, "fan", ts, tc)
}
