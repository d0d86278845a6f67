package router

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pbqprl/internal/failpoint"
	"pbqprl/internal/metrics"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/server"
)

// fig2 is the paper's Figure 2 example — small, feasible, and solvable
// by every backend chain.
const fig2 = "pbqp 3 2\nv 0 5 2\nv 1 5 0\nv 2 0 0\ne 0 1 0 inf inf 4\ne 1 2 1 0 0 2\n"

// graphN varies a vertex cost so each i is a distinct cache key with
// unchanged feasibility.
func graphN(i int) string {
	return fmt.Sprintf("pbqp 3 2\nv 0 %d 2\nv 1 5 0\nv 2 0 0\ne 0 1 0 inf inf 4\ne 1 2 1 0 0 2\n", i+1)
}

// okBody is a canned complete feasible answer (cacheable).
const okBody = `{"solver":"stub","result":{"feasible":true,"truncated":false}}`

// testConfig returns a Config tuned for fast tests: no active health
// loop, tiny backoffs, a twitchy breaker, pinned jitter.
func testConfig(backends ...string) Config {
	return Config{
		Backends:         backends,
		MaxTries:         4,
		BackoffBase:      time.Millisecond,
		BackoffMax:       5 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  100 * time.Millisecond,
		DefaultDeadline:  5 * time.Second,
		JitterSeed:       1,
	}
}

func newTestRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		r.Drain(ctx)
	})
	return r
}

// post sends body to the router's /v1/solve with optional headers.
func post(h http.Handler, body string, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// counterSum adds every counter whose name starts with prefix.
func counterSum(reg *metrics.Registry, prefix string) int64 {
	var sum int64
	for name, v := range reg.Snapshot().Counters {
		if strings.HasPrefix(name, prefix) {
			sum += v
		}
	}
	return sum
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestRouterDecompChainPassThrough: the "decomp:" stage prefix rides
// the chain knob through the router to a real backend, which solves
// via the big-graph decomposition pipeline.
func TestRouterDecompChainPassThrough(t *testing.T) {
	srv, err := server.New(server.Config{Workers: 2, DefaultChain: []string{"scholz"}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain(ctx)
	}()
	r := newTestRouter(t, testConfig(ts.URL))
	rec := post(r.Handler(), fig2, map[string]string{"X-PBQP-Chain": "decomp:brute"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	var resp struct {
		Stats struct {
			Stages []struct {
				Name string `json:"name"`
			} `json:"stages"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad response: %v", err)
	}
	if len(resp.Stats.Stages) != 1 || resp.Stats.Stages[0].Name != "decomp(brute)" {
		t.Fatalf("stages %+v, want one decomp(brute) stage", resp.Stats.Stages)
	}
}

// TestRouterCacheHitPath pins the content-addressed cache: the second
// identical request answers from memory without touching a backend.
func TestRouterCacheHitPath(t *testing.T) {
	var arrivals atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrivals.Add(1)
		w.Write([]byte(okBody))
	}))
	defer ts.Close()
	r := newTestRouter(t, testConfig(ts.URL))

	first := post(r.Handler(), fig2, nil)
	if first.Code != http.StatusOK {
		t.Fatalf("first request: %d %s", first.Code, first.Body)
	}
	if got := first.Header().Get("X-PBQP-Cache"); got != "miss" {
		t.Fatalf("first request cache header = %q, want miss", got)
	}
	second := post(r.Handler(), fig2, nil)
	if second.Code != http.StatusOK {
		t.Fatalf("second request: %d %s", second.Code, second.Body)
	}
	if got := second.Header().Get("X-PBQP-Cache"); got != "hit" {
		t.Fatalf("second request cache header = %q, want hit", got)
	}
	if second.Body.String() != first.Body.String() {
		t.Fatal("cached answer differs from the original")
	}
	if got := arrivals.Load(); got != 1 {
		t.Fatalf("backend saw %d requests, want 1", got)
	}
	snap := r.Registry().Snapshot()
	if snap.Counters["router_cache_hits_total"] != 1 || snap.Counters["router_cache_misses_total"] != 1 {
		t.Fatalf("cache counters off: %+v", snap.Counters)
	}
}

// TestCanonicalizationSharesCacheSlot pins that two textual spellings
// of the same graph are one key: the canonical hash, not the client's
// bytes, addresses the cache.
func TestCanonicalizationSharesCacheSlot(t *testing.T) {
	var arrivals atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrivals.Add(1)
		w.Write([]byte(okBody))
	}))
	defer ts.Close()
	r := newTestRouter(t, testConfig(ts.URL))

	// Same graph, scrambled line order plus a comment.
	scrambled := "# same graph\npbqp 3 2\nv 2 0 0\ne 1 2 1 0 0 2\nv 0 5 2\ne 0 1 0 inf inf 4\nv 1 5 0\n"
	if rec := post(r.Handler(), fig2, nil); rec.Code != http.StatusOK {
		t.Fatalf("canonical spelling: %d %s", rec.Code, rec.Body)
	}
	rec := post(r.Handler(), scrambled, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("scrambled spelling: %d %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-PBQP-Cache"); got != "hit" {
		t.Fatalf("scrambled spelling missed the cache (header %q)", got)
	}
	if got := arrivals.Load(); got != 1 {
		t.Fatalf("backend saw %d requests, want 1", got)
	}
}

// TestForwardedBodyIsTheCanonicalForm pins the one canonicalisation a
// miss pays: whatever the client's spelling, the body the backend gets
// is byte-equal to pbqp.Write of the graph, and its SHA-256 is both
// pbqp.CanonicalHash and the key the answer is cached under — so every
// router of a fleet, old or new, shards and caches a graph alike.
func TestForwardedBodyIsTheCanonicalForm(t *testing.T) {
	var mu sync.Mutex
	var bodies [][]byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		b, _ := io.ReadAll(req.Body)
		mu.Lock()
		bodies = append(bodies, b)
		mu.Unlock()
		w.Write([]byte(okBody))
	}))
	defer ts.Close()
	r := newTestRouter(t, testConfig(ts.URL))

	scrambled := "# same graph\r\npbqp\t3 2\r\nv 2 0 -0\ne 1 2 1 0 0 2\nv 0 5 2.0\ne 1 0 0 inf +INF 4e0\nv 1 5 0\u00a0\n"
	g, err := pbqp.Read(strings.NewReader(scrambled))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := pbqp.Write(&want, g); err != nil {
		t.Fatal(err)
	}
	sum, err := pbqp.CanonicalHash(g)
	if err != nil {
		t.Fatal(err)
	}

	rec := post(r.Handler(), scrambled, nil)
	if rec.Code != http.StatusOK || rec.Header().Get("X-PBQP-Cache") != "miss" {
		t.Fatalf("scrambled spelling: %d, cache %q: %s", rec.Code, rec.Header().Get("X-PBQP-Cache"), rec.Body)
	}
	if len(bodies) != 1 || !bytes.Equal(bodies[0], want.Bytes()) {
		t.Fatalf("backend received %q, want the canonical form %q", bodies, want.Bytes())
	}
	if sha256.Sum256(bodies[0]) != sum {
		t.Fatal("the forwarded body does not hash to pbqp.CanonicalHash")
	}
	if _, _, ok := r.cache.Get(cacheKey(sum, knobs{costMode: "zeroinf"})); !ok {
		t.Fatal("the answer is not cached under the canonical hash")
	}
	// The canonical spelling itself is a hit, and nothing more is forwarded.
	if rec := post(r.Handler(), want.String(), nil); rec.Header().Get("X-PBQP-Cache") != "hit" {
		t.Fatalf("canonical spelling: %d, cache %q", rec.Code, rec.Header().Get("X-PBQP-Cache"))
	}
	// A byte-identical repeat under a new knob resolves its hash from
	// the raw memo and still has to forward the canonical body.
	if rec := post(r.Handler(), scrambled, map[string]string{"X-PBQP-Chain": "scholz"}); rec.Header().Get("X-PBQP-Cache") != "miss" {
		t.Fatalf("new chain: %d, cache %q", rec.Code, rec.Header().Get("X-PBQP-Cache"))
	}
	if len(bodies) != 2 || !bytes.Equal(bodies[1], want.Bytes()) {
		t.Fatalf("after a raw-memo hit the backend received %q, want the canonical form", bodies[1:])
	}
}

// TestRequestBodyRead pins how the body is read into its one buffer: a
// declared length sizes it only under the cap, and a missing or lying
// length changes nothing about the answer.
func TestRequestBodyRead(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Write([]byte(okBody))
	}))
	defer ts.Close()
	cfg := testConfig(ts.URL)
	cfg.MaxRequestBytes = 4096
	r := newTestRouter(t, cfg)

	t.Run("declared length above the cap", func(t *testing.T) {
		const declared = 1 << 30
		req := httptest.NewRequest(http.MethodPost, "/v1/solve",
			io.LimitReader(strings.NewReader(strings.Repeat("# padding\n", 1000)), declared))
		req.ContentLength = declared
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r.Handler().ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "exceeds 4096 bytes") {
			t.Fatalf("answered %d %s, want 413", rec.Code, rec.Body)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Fatalf("a 1 GiB Content-Length bought %d bytes of allocation", got)
		}
	})

	t.Run("chunked", func(t *testing.T) {
		req := httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(graphN(7)))
		req.ContentLength = -1
		rec := httptest.NewRecorder()
		r.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || rec.Header().Get("X-PBQP-Cache") != "miss" || rec.Body.String() != okBody {
			t.Fatalf("no length: %d, cache %q: %s", rec.Code, rec.Header().Get("X-PBQP-Cache"), rec.Body)
		}
		// With its length the same body is the same request.
		if rec := post(r.Handler(), graphN(7), nil); rec.Header().Get("X-PBQP-Cache") != "hit" {
			t.Fatalf("with length: %d, cache %q", rec.Code, rec.Header().Get("X-PBQP-Cache"))
		}
	})

	t.Run("shorter than declared", func(t *testing.T) {
		// Only a real connection frames a body by its Content-Length.
		front := httptest.NewServer(r.Handler())
		defer front.Close()
		conn, err := net.Dial("tcp", front.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		fmt.Fprintf(conn, "POST /v1/solve HTTP/1.1\r\nHost: router\r\nContent-Length: %d\r\n\r\n%s", len(fig2)+100, fig2)
		conn.(*net.TCPConn).CloseWrite()
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "unexpected EOF") {
			t.Fatalf("answered %d %s, want 400 unexpected EOF", resp.StatusCode, msg)
		}
	})
}

// TestSingleflightCoalesces64 is the coalescing gate: 64 concurrent
// identical requests cost exactly one backend solve. The backend
// blocks until released, so every request is in flight at once; run
// under -race this also exercises the flight group's synchronization.
func TestSingleflightCoalesces64(t *testing.T) {
	release := make(chan struct{})
	var arrivals atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrivals.Add(1)
		<-release
		w.Write([]byte(okBody))
	}))
	defer ts.Close()
	r := newTestRouter(t, testConfig(ts.URL))

	const clients = 64
	codes := make([]int, clients)
	headers := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := post(r.Handler(), fig2, nil)
			codes[i] = rec.Code
			headers[i] = rec.Header().Get("X-PBQP-Cache")
		}(i)
	}
	// Let the leader reach the backend and the followers join the
	// flight, then release the one solve.
	waitFor(t, 5*time.Second, "leader to reach the backend", func() bool { return arrivals.Load() == 1 })
	time.Sleep(200 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := arrivals.Load(); got != 1 {
		t.Fatalf("backend saw %d solves for 64 identical requests, want exactly 1", got)
	}
	var miss, coalesced, hit int
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d failed: %d", i, code)
		}
		switch headers[i] {
		case "miss":
			miss++
		case "coalesced":
			coalesced++
		case "hit":
			hit++
		default:
			t.Fatalf("request %d has cache header %q", i, headers[i])
		}
	}
	if miss != 1 {
		t.Fatalf("%d leaders, want 1 (coalesced=%d hit=%d)", miss, coalesced, hit)
	}
	if coalesced == 0 {
		t.Fatal("no request was coalesced")
	}
	if got := r.Registry().Snapshot().Counters["router_coalesced_total"]; got != int64(coalesced) {
		t.Fatalf("coalesced counter %d, want %d", got, coalesced)
	}
}

// TestFailoverOnBackendError pins failover: the primary answering 500
// does not fail the request, the next replica does the work, and the
// failover counter moves.
func TestFailoverOnBackendError(t *testing.T) {
	// Whichever backend is contacted first misbehaves forever.
	var firstID atomic.Int64
	mk := func(id int64) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if firstID.CompareAndSwap(0, id) || firstID.Load() == id {
				http.Error(w, "boom", http.StatusInternalServerError)
				return
			}
			w.Write([]byte(okBody))
		}))
	}
	a, b := mk(1), mk(2)
	defer a.Close()
	defer b.Close()
	r := newTestRouter(t, testConfig(a.URL, b.URL))

	rec := post(r.Handler(), fig2, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("request failed despite a healthy replica: %d %s", rec.Code, rec.Body)
	}
	if got := counterSum(r.Registry(), "router_backend_failovers_total."); got < 1 {
		t.Fatalf("failover counter = %d, want >= 1", got)
	}
	if got := counterSum(r.Registry(), "router_backend_tries_total."); got < 2 {
		t.Fatalf("tries counter = %d, want >= 2", got)
	}
}

// TestFailoverOnTornResponse pins the torn-read path: a response that
// dies after the status line is a transport failure, retried like any
// other.
func TestFailoverOnTornResponse(t *testing.T) {
	var arrivals atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrivals.Add(1)
		w.Write([]byte(okBody))
	}))
	defer ts.Close()
	if err := failpoint.Enable("router/forward/read", "error*1"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(failpoint.DisableAll)
	r := newTestRouter(t, testConfig(ts.URL))

	rec := post(r.Handler(), fig2, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("request failed on a transient torn response: %d %s", rec.Code, rec.Body)
	}
	if got := failpoint.Hits("router/forward/read"); got != 1 {
		t.Fatalf("torn-response failpoint fired %d times, want 1", got)
	}
	if got := arrivals.Load(); got != 2 {
		t.Fatalf("backend saw %d tries, want 2 (torn then retried)", got)
	}
}

// TestBreakerTripsAndRecovers walks the breaker state machine
// end-to-end: consecutive failures trip it open, open sheds without
// contacting the backend, and a half-open probe after the cooldown
// closes it again — no operator action anywhere.
func TestBreakerTripsAndRecovers(t *testing.T) {
	var healthy atomic.Bool
	var arrivals atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrivals.Add(1)
		if !healthy.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.Write([]byte(okBody))
	}))
	defer ts.Close()
	r := newTestRouter(t, testConfig(ts.URL)) // threshold 2, cooldown 100ms

	// Request 1 burns its tries against the failing backend and trips
	// the breaker (2 consecutive failures >= threshold).
	if rec := post(r.Handler(), graphN(0), nil); rec.Code != http.StatusBadGateway {
		t.Fatalf("against a failing backend: %d, want 502", rec.Code)
	}
	if got := counterSum(r.Registry(), "router_breaker_trips_total."); got != 1 {
		t.Fatalf("trips counter = %d, want 1", got)
	}
	contactsAfterTrip := arrivals.Load()

	// Request 2 arrives while the breaker is open: shed with 503 +
	// Retry-After, zero backend contact.
	rec := post(r.Handler(), graphN(1), nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("while breaker open: %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("open-breaker 503 carries no Retry-After")
	}
	if got := arrivals.Load(); got != contactsAfterTrip {
		t.Fatalf("open breaker still contacted the backend (%d -> %d)", contactsAfterTrip, got)
	}

	// Backend recovers; after the cooldown the next request is the
	// half-open probe and closes the breaker.
	healthy.Store(true)
	time.Sleep(150 * time.Millisecond)
	if rec := post(r.Handler(), graphN(2), nil); rec.Code != http.StatusOK {
		t.Fatalf("after recovery: %d %s", rec.Code, rec.Body)
	}
	state := r.Registry().Snapshot().Gauges
	for name, v := range state {
		if strings.HasPrefix(name, "router_breaker_state.") && v != breakerClosed {
			t.Fatalf("breaker did not close after successful probe: %s=%d", name, v)
		}
	}
}

// TestRetryAfterHintHonored pins that a backend's 429 Retry-After
// ejects it from selection for the hinted window instead of being
// hammered by retries.
func TestRetryAfterHintHonored(t *testing.T) {
	var arrivals atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrivals.Add(1)
		w.Header().Set("Retry-After", "60")
		http.Error(w, "shedding", http.StatusTooManyRequests)
	}))
	defer ts.Close()
	r := newTestRouter(t, testConfig(ts.URL))

	if rec := post(r.Handler(), graphN(0), nil); rec.Code != http.StatusBadGateway {
		t.Fatalf("first request: %d, want 502 after the hinted backend is exhausted", rec.Code)
	}
	if got := arrivals.Load(); got != 1 {
		t.Fatalf("backend contacted %d times, want 1 (hint honored within the request)", got)
	}
	// The hint outlives the request: the next one sheds immediately.
	rec := post(r.Handler(), graphN(1), nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("second request: %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("shed answer carries no Retry-After")
	}
	if got := arrivals.Load(); got != 1 {
		t.Fatalf("backend contacted %d times total, want still 1", got)
	}
}

// TestDegradedModeServesCacheHitsAndShedsRest is the total-loss story:
// with every backend gone, cached answers keep flowing and everything
// else sheds with 503 + Retry-After instead of hanging.
func TestDegradedModeServesCacheHitsAndShedsRest(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.Write([]byte(`{"status":"ready"}`))
			return
		}
		w.Write([]byte(okBody))
	}))
	cfg := testConfig(ts.URL)
	cfg.HealthInterval = 10 * time.Millisecond
	cfg.HealthTimeout = 200 * time.Millisecond
	r := newTestRouter(t, cfg)

	if rec := post(r.Handler(), fig2, nil); rec.Code != http.StatusOK {
		t.Fatalf("warm-up request: %d %s", rec.Code, rec.Body)
	}

	// The whole fleet dies. The active prober ejects it.
	ts.Close()
	waitFor(t, 5*time.Second, "prober to eject the dead backend", func() bool {
		return r.Registry().Snapshot().Gauges["router_backend_ready."+strings.TrimPrefix(ts.URL, "http://")] == 0
	})

	start := time.Now()
	hitRec := post(r.Handler(), fig2, nil)
	if hitRec.Code != http.StatusOK || hitRec.Header().Get("X-PBQP-Cache") != "hit" {
		t.Fatalf("cache hit under total loss: %d cache=%q", hitRec.Code, hitRec.Header().Get("X-PBQP-Cache"))
	}
	missRec := post(r.Handler(), graphN(7), nil)
	if missRec.Code != http.StatusServiceUnavailable {
		t.Fatalf("cache miss under total loss: %d, want 503", missRec.Code)
	}
	if missRec.Header().Get("Retry-After") == "" {
		t.Fatal("degraded 503 carries no Retry-After")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("degraded answers took %v; shedding must not hang", elapsed)
	}
	if got := r.Registry().Snapshot().Counters["requests_shed_total"]; got < 1 {
		t.Fatalf("requests_shed_total = %d, want >= 1", got)
	}
}

// TestRouterDrain pins the shutdown story: draining answers 503 with
// Retry-After on both the solve path and readyz, healthz stays 200.
func TestRouterDrain(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(okBody))
	}))
	defer ts.Close()
	r, err := New(testConfig(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	rec := post(r.Handler(), fig2, nil)
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("draining solve: %d retry-after=%q, want 503 with a hint", rec.Code, rec.Header().Get("Retry-After"))
	}
	req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	ready := httptest.NewRecorder()
	r.Handler().ServeHTTP(ready, req)
	if ready.Code != http.StatusServiceUnavailable || ready.Header().Get("Retry-After") == "" {
		t.Fatalf("draining readyz: %d retry-after=%q, want 503 with a hint", ready.Code, ready.Header().Get("Retry-After"))
	}
	live := httptest.NewRecorder()
	r.Handler().ServeHTTP(live, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if live.Code != http.StatusOK {
		t.Fatalf("draining healthz: %d, want 200", live.Code)
	}
}

// TestBadInputHandledLocally pins that hostile bodies die at the
// router: no backend sees them.
func TestBadInputHandledLocally(t *testing.T) {
	var arrivals atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrivals.Add(1)
		w.Write([]byte(okBody))
	}))
	defer ts.Close()
	cfg := testConfig(ts.URL)
	cfg.MaxRequestBytes = 1024
	r := newTestRouter(t, cfg)

	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"garbage", "not a graph", http.StatusBadRequest},
		{"hostile header", "pbqp 2000000000 9999\n", http.StatusBadRequest},
		{"oversized", fig2 + strings.Repeat("# padding\n", 200), http.StatusRequestEntityTooLarge},
	} {
		rec := post(r.Handler(), tc.body, nil)
		if rec.Code != tc.want {
			t.Fatalf("%s: %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body)
		}
	}
	if got := arrivals.Load(); got != 0 {
		t.Fatalf("backend saw %d hostile requests, want 0", got)
	}
	rec := post(r.Handler(), fig2, map[string]string{"X-PBQP-Cost-Mode": "bogus"})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad cost-mode: %d, want 400", rec.Code)
	}
}

// TestCacheKeyIncludesKnobs pins that the chain and cost-mode knobs
// partition the cache — and that knob normalization ("a, b" vs "a,b")
// does not.
func TestCacheKeyIncludesKnobs(t *testing.T) {
	var arrivals atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrivals.Add(1)
		w.Write([]byte(okBody))
	}))
	defer ts.Close()
	r := newTestRouter(t, testConfig(ts.URL))

	if rec := post(r.Handler(), fig2, map[string]string{"X-PBQP-Chain": "liberty,scholz"}); rec.Code != http.StatusOK {
		t.Fatalf("first: %d", rec.Code)
	}
	if rec := post(r.Handler(), fig2, map[string]string{"X-PBQP-Chain": " liberty , scholz "}); rec.Header().Get("X-PBQP-Cache") != "hit" {
		t.Fatalf("normalized chain spelling missed the cache: %q", rec.Header().Get("X-PBQP-Cache"))
	}
	if rec := post(r.Handler(), fig2, map[string]string{"X-PBQP-Chain": "scholz"}); rec.Header().Get("X-PBQP-Cache") != "miss" {
		t.Fatalf("different chain hit the same cache slot: %q", rec.Header().Get("X-PBQP-Cache"))
	}
	if rec := post(r.Handler(), fig2, map[string]string{"X-PBQP-Cost-Mode": "spill", "X-PBQP-Chain": "scholz"}); rec.Header().Get("X-PBQP-Cache") != "miss" {
		t.Fatalf("different cost-mode hit the same cache slot: %q", rec.Header().Get("X-PBQP-Cache"))
	}
	if got := arrivals.Load(); got != 3 {
		t.Fatalf("backend saw %d solves, want 3", got)
	}
}

// TestTruncatedAnswersNeverCached pins the cacheability rule: an
// answer cut short by its deadline depends on that deadline and must
// not be replayed to other requests.
func TestTruncatedAnswersNeverCached(t *testing.T) {
	var arrivals atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrivals.Add(1)
		w.Write([]byte(`{"solver":"stub","result":{"feasible":true,"truncated":true}}`))
	}))
	defer ts.Close()
	r := newTestRouter(t, testConfig(ts.URL))
	for i := 0; i < 2; i++ {
		if rec := post(r.Handler(), fig2, nil); rec.Header().Get("X-PBQP-Cache") == "hit" {
			t.Fatal("truncated answer was cached")
		}
	}
	if got := arrivals.Load(); got != 2 {
		t.Fatalf("backend saw %d solves, want 2 (no caching of truncated answers)", got)
	}
}

// TestRouterAgainstRealBackends is the integration path: two genuine
// pbqp-serve service instances behind the router, solving for real.
func TestRouterAgainstRealBackends(t *testing.T) {
	mkBackend := func() (*httptest.Server, *server.Server) {
		srv, err := server.New(server.Config{
			Workers:         2,
			DefaultChain:    []string{"liberty", "scholz"},
			DefaultDeadline: 10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		return httptest.NewServer(srv.Handler()), srv
	}
	tsA, srvA := mkBackend()
	tsB, srvB := mkBackend()
	defer tsA.Close()
	defer tsB.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srvA.Drain(ctx)
		srvB.Drain(ctx)
	}()
	r := newTestRouter(t, testConfig(tsA.URL, tsB.URL))

	// Eight graphs, four whose primary is each backend: the ring places
	// keys by the listeners' ports, so fixed graphs could all land on one.
	var graphs []string
	primaries := make([]int, 2)
	for i := 0; len(graphs) < 8; i++ {
		g, err := pbqp.Read(strings.NewReader(graphN(i)))
		if err != nil {
			t.Fatal(err)
		}
		sum, err := pbqp.CanonicalHash(g)
		if err != nil {
			t.Fatal(err)
		}
		if b := r.ring.successors(sum)[0]; primaries[b] < 4 {
			primaries[b]++
			graphs = append(graphs, graphN(i))
		}
	}

	for i, g := range graphs {
		rec := post(r.Handler(), g, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("graph %d: %d %s", i, rec.Code, rec.Body)
		}
		var resp struct {
			Result struct {
				Feasible  bool `json:"feasible"`
				Truncated bool `json:"truncated"`
			} `json:"result"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
		if !resp.Result.Feasible || resp.Result.Truncated {
			t.Fatalf("graph %d: feasible=%v truncated=%v", i, resp.Result.Feasible, resp.Result.Truncated)
		}
	}
	// Repeats are all cache hits.
	for i, g := range graphs {
		if rec := post(r.Handler(), g, nil); rec.Header().Get("X-PBQP-Cache") != "hit" {
			t.Fatalf("repeat of graph %d missed the cache", i)
		}
	}
	// Both real backends took their share of the 8 distinct graphs.
	var active int
	for name, v := range r.Registry().Snapshot().Counters {
		if strings.HasPrefix(name, "router_backend_tries_total.") && v > 0 {
			active++
		}
	}
	if active < 2 {
		t.Fatalf("only %d backends saw traffic; each is the primary of 4 of the 8 graphs", active)
	}
}
