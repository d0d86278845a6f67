package metrics

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-7) // counters never go down
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	var g Gauge
	g.Set(7)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram(0.001, 0.01, 0.1)
	for _, d := range []time.Duration{
		500 * time.Microsecond, // ≤ 1ms
		time.Millisecond,       // == bound, inclusive
		5 * time.Millisecond,   // ≤ 10ms
		50 * time.Millisecond,  // ≤ 100ms
		time.Second,            // overflow
	} {
		h.Observe(d)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	wantCum := []int64{2, 3, 4, 5}
	wantLE := []string{"0.001", "0.01", "0.1", "+inf"}
	if len(s.Buckets) != len(wantCum) {
		t.Fatalf("buckets = %+v", s.Buckets)
	}
	for i, b := range s.Buckets {
		if b.Count != wantCum[i] || b.LE != wantLE[i] {
			t.Fatalf("bucket %d = %+v, want le=%s count=%d", i, b, wantLE[i], wantCum[i])
		}
	}
	wantSum := (500*time.Microsecond + time.Millisecond + 5*time.Millisecond + 50*time.Millisecond + time.Second).Seconds()
	if s.SumSeconds < wantSum-1e-9 || s.SumSeconds > wantSum+1e-9 {
		t.Fatalf("sum = %v, want %v", s.SumSeconds, wantSum)
	}
}

// TestRegistryConcurrent hammers one registry from many goroutines
// while another snapshots it, as /metrics does under load — the
// instruments must be race-free (run under -race in CI) and lose no
// events.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, events = 8, 1000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < events; i++ {
			r.Snapshot()
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < events; i++ {
				r.Counter("hits").Inc()
				r.Histogram("lat").Observe(time.Millisecond)
				r.Gauge("depth").Set(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits").Value(); got != workers*events {
		t.Fatalf("hits = %d, want %d", got, workers*events)
	}
	if got := r.Histogram("lat").Snapshot().Count; got != workers*events {
		t.Fatalf("observations = %d, want %d", got, workers*events)
	}
	if got := r.Gauge("depth").Value(); got != 1 {
		t.Fatalf("depth = %d, want 1", got)
	}
}

func TestServeHTTPSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("http_requests_total.200").Add(3)
	r.Histogram("solve_stage_seconds.scholz").Observe(2 * time.Millisecond)
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.Bytes())
	}
	if snap.Counters["http_requests_total.200"] != 3 {
		t.Fatalf("counter missing: %+v", snap.Counters)
	}
	h, ok := snap.Histograms["solve_stage_seconds.scholz"]
	if !ok || h.Count != 1 {
		t.Fatalf("histogram missing: %+v", snap.Histograms)
	}
	if !strings.HasSuffix(rec.Body.String(), "\n") {
		t.Fatal("snapshot should end with a newline")
	}
}

// blockingWriter is a /metrics ResponseWriter whose Write announces
// itself on writing and blocks until release is closed.
type blockingWriter struct {
	header           http.Header
	writing, release chan struct{}
}

func (w *blockingWriter) Header() http.Header { return w.header }
func (w *blockingWriter) WriteHeader(int)     {}
func (w *blockingWriter) Write(p []byte) (int, error) {
	close(w.writing)
	<-w.release
	return len(p), nil
}

// TestServeHTTPHoldsNoLockWhileWriting: a /metrics client that reads
// slowly must not stall the instruments. While ServeHTTP is blocked in
// the response write, registering a new counter has to go through.
func TestServeHTTPHoldsNoLockWhileWriting(t *testing.T) {
	r := NewRegistry()
	w := &blockingWriter{header: http.Header{}, writing: make(chan struct{}), release: make(chan struct{})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		r.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	}()
	defer func() {
		close(w.release)
		<-served
	}()
	<-w.writing
	registered := make(chan struct{})
	go func() {
		defer close(registered)
		r.Counter("new").Inc()
	}()
	select {
	case <-registered:
	case <-time.After(2 * time.Second):
		t.Fatal("registering a counter blocked behind a /metrics response write")
	}
}
