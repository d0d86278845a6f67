// Package metrics is the repository's stdlib-only runtime
// instrumentation: lock-free counters, gauges, and fixed-bucket latency
// histograms collected in a Registry that serves an expvar-style JSON
// snapshot over HTTP. pbqp-serve uses it for per-stage and
// per-status-code request latency; the training pipeline can reuse the
// same registry for iteration timing without growing a dependency.
//
// Naming convention: flat dotted names with an optional trailing
// `.label` segment for one dimension, e.g. `http_requests_total.200`
// or `solve_stage_seconds.scholz`. Consumers that want all labels of a
// family match on the prefix.
package metrics

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count. The zero value is
// ready to use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous level — queue depth, in-flight requests.
// Unlike a Counter it can go down. The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set overwrites the level.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefBuckets are the default latency bucket upper bounds in seconds:
// half a millisecond to one minute, roughly ×2.5 per step. They bracket
// everything from a cached Scholz reduction to a deadline-bounded
// portfolio run.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram is a fixed-bucket latency histogram. Observations are
// atomic adds — no locks on the hot path — so concurrent request
// handlers can share one instance. Construct with NewHistogram; the
// zero value is not usable.
type Histogram struct {
	// bounds are the inclusive upper bounds in seconds, ascending.
	bounds []float64
	// counts has len(bounds)+1 entries; the last is the overflow
	// bucket (observations above every bound).
	counts []atomic.Int64
	count  atomic.Int64
	// sumNanos accumulates total observed time in nanoseconds; an
	// int64 holds ~292 years of it, far past any process lifetime.
	sumNanos atomic.Int64
}

// NewHistogram returns a histogram over the given ascending upper
// bounds in seconds (DefBuckets when none are given).
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	secs := d.Seconds()
	i := sort.SearchFloat64s(h.bounds, secs)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNanos.Add(int64(d))
}

// Bucket is one row of a histogram snapshot: the cumulative count of
// observations at or below the upper bound LE ("+inf" for the overflow
// row), Prometheus-style.
type Bucket struct {
	LE    string `json:"le"`
	Count int64  `json:"count"`
}

// HistogramSnapshot is a point-in-time JSON-marshalable view of a
// histogram.
type HistogramSnapshot struct {
	Count      int64    `json:"count"`
	SumSeconds float64  `json:"sum_seconds"`
	Buckets    []Bucket `json:"buckets"`
}

// Snapshot captures the histogram's current state. Concurrent Observe
// calls may land between bucket reads; each row is individually exact
// and the cumulative rows are monotone.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:      h.count.Load(),
		SumSeconds: time.Duration(h.sumNanos.Load()).Seconds(),
		Buckets:    make([]Bucket, 0, len(h.counts)),
	}
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+inf"
		if i < len(h.bounds) {
			le = fmt.Sprintf("%g", h.bounds[i])
		}
		s.Buckets = append(s.Buckets, Bucket{LE: le, Count: cum})
	}
	return s
}

// Registry is a named collection of metrics. Get-or-create lookups
// take a mutex; the returned instruments are lock-free, so callers
// should hold on to them rather than look them up per event when the
// name is known up front.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given bounds (DefBuckets when none) on first use. Bounds are
// fixed at creation; later calls with different bounds get the
// original instrument.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds...)
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time view of every registered metric, ready
// for json.Marshal. encoding/json sorts map keys, so the output is
// stable for a fixed metric population.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures the registry.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// ServeHTTP serves the registry snapshot as indented JSON — the
// /metrics endpoint.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}
