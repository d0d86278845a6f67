package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pbqprl/internal/cost"
	"pbqprl/internal/failpoint"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/solve"
)

const fig2 = "pbqp 3 2\nv 0 5 2\nv 1 5 0\nv 2 0 0\ne 0 1 0 inf inf 4\ne 1 2 1 0 0 2\n"

// infeasiblePair is unsolvable: one color, and the edge forbids it.
const infeasiblePair = "pbqp 2 1\ne 0 1 inf\n"

// post sends body to /v1/solve on h with optional query string and
// headers.
func post(h http.Handler, body, query string, hdr map[string]string) *httptest.ResponseRecorder {
	target := "/v1/solve"
	if query != "" {
		target += "?" + query
	}
	req := httptest.NewRequest(http.MethodPost, target, strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decodeSolve(t *testing.T, rec *httptest.ResponseRecorder) SolveResponse {
	t.Helper()
	var resp SolveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad solve response JSON: %v\n%s", err, rec.Body.Bytes())
	}
	return resp
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if !s.adm.IsDraining() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := s.Drain(ctx); err != nil {
				t.Errorf("cleanup drain: %v", err)
			}
		}
	})
	return s
}

func TestSolveHappyPath(t *testing.T) {
	s := newTestServer(t, Config{DefaultChain: []string{"liberty", "scholz"}})
	rec := post(s.Handler(), fig2, "deadline=5s", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	resp := decodeSolve(t, rec)
	if !resp.Result.Feasible || resp.Result.Truncated {
		t.Fatalf("result %+v", resp.Result)
	}
	if len(resp.Result.Selection) != 3 {
		t.Fatalf("selection %v", resp.Result.Selection)
	}
	if len(resp.Stats.Stages) != 2 || resp.Stats.Winner != 0 {
		t.Fatalf("stats %+v", resp.Stats)
	}
	if resp.Solver != "portfolio(liberty→scholz)" {
		t.Fatalf("solver %q", resp.Solver)
	}
	if resp.SolveNanos <= 0 || resp.QueueNanos < 0 {
		t.Fatalf("timing queue=%d solve=%d", resp.QueueNanos, resp.SolveNanos)
	}
}

// TestSolveDecompChain exercises the "decomp:" stage prefix: the chain
// routes through the big-graph decomposition pipeline and still finds
// the fig2 optimum.
func TestSolveDecompChain(t *testing.T) {
	s := newTestServer(t, Config{DefaultChain: []string{"decomp:brute"}})
	rec := post(s.Handler(), fig2, "deadline=5s", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	resp := decodeSolve(t, rec)
	if !resp.Result.Feasible || resp.Result.Truncated {
		t.Fatalf("result %+v", resp.Result)
	}
	if resp.Stats.Stages[0].Name != "decomp(brute)" {
		t.Fatalf("stage name %q", resp.Stats.Stages[0].Name)
	}
	plain := decodeSolve(t, post(s.Handler(), fig2, "deadline=5s&chain=brute", nil))
	if resp.Result.Cost != plain.Result.Cost {
		t.Fatalf("decomp cost %v, plain brute %v", resp.Result.Cost, plain.Result.Cost)
	}
}

// TestSolveDecompUnknownInner: the prefix must not mask bad inner names.
func TestSolveDecompUnknownInner(t *testing.T) {
	s := newTestServer(t, Config{DefaultChain: []string{"scholz"}})
	rec := post(s.Handler(), fig2, "chain=decomp%3Azebra", nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
}

func TestSolveInfeasibleIs422(t *testing.T) {
	s := newTestServer(t, Config{DefaultChain: []string{"scholz"}})
	rec := post(s.Handler(), infeasiblePair, "", nil)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	resp := decodeSolve(t, rec)
	if resp.Result.Feasible || resp.Result.Truncated {
		t.Fatalf("result %+v", resp.Result)
	}
}

// spinner busy-waits until its context fires, then reports a truncated
// infeasible search — the shape of a solver that ran out of deadline
// with nothing to show.
type spinner struct{}

func (spinner) Name() string { return "spinner" }
func (spinner) Solve(g *pbqp.Graph) solve.Result {
	return spinner{}.SolveCtx(context.Background(), g)
}
func (spinner) SolveCtx(ctx context.Context, g *pbqp.Graph) solve.Result {
	for ctx.Err() == nil {
		time.Sleep(50 * time.Microsecond)
	}
	return solve.Result{Cost: cost.Inf, Truncated: true}
}

func TestDeadlineTruncationIs504(t *testing.T) {
	s := newTestServer(t, Config{
		DefaultChain: []string{"block"},
		MakeSolver: func(string) (solve.Solver, error) {
			return spinner{}, nil
		},
	})
	start := time.Now()
	rec := post(s.Handler(), fig2, "deadline=50ms", nil)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline ignored: took %v", elapsed)
	}
	resp := decodeSolve(t, rec)
	if !resp.Result.Truncated || resp.Result.Feasible {
		t.Fatalf("result %+v", resp.Result)
	}
}

// TestRequestHardening runs the handler table over hostile inputs,
// reusing the FuzzReadGraph seed corpus as fixtures so the server's
// parse path is pinned to exactly what the fuzzer's seeds exercise.
func TestRequestHardening(t *testing.T) {
	s := newTestServer(t, Config{
		DefaultChain:    []string{"liberty", "scholz"},
		MaxRequestBytes: 1 << 16,
		ReadLimits:      pbqp.ReadLimits{MaxVertices: 1 << 10, MaxColors: 1 << 6},
	})
	seeds := readFuzzSeeds(t)
	cases := []struct {
		name       string
		body       string
		wantStatus int
		wantErr    string
	}{
		{"seed_fig2", seeds["seed_fig2"], http.StatusOK, ""},
		{"seed_minimal", seeds["seed_minimal"], http.StatusOK, ""},
		{"seed_empty_graph", seeds["seed_empty_graph"], http.StatusOK, ""},
		{"seed_comment_inf", seeds["seed_comment_inf"], http.StatusOK, ""},
		{"seed_reversed_edge", seeds["seed_reversed_edge"], http.StatusOK, ""},
		{"seed_absurd_header", seeds["seed_absurd_header"], http.StatusBadRequest, "exceeds the limit"},
		{"seed_duplicate_edge", seeds["seed_duplicate_edge"], http.StatusBadRequest, "duplicate edge"},
		{"seed_reserved_range", seeds["seed_reserved_range"], http.StatusBadRequest, "reserved infinite range"},
		{"empty body", "", http.StatusBadRequest, "missing header"},
		{"not pbqp", "GET / HTTP/1.1", http.StatusBadRequest, "unknown directive"},
		{"vertices past tightened cap", "pbqp 2000 2\n", http.StatusBadRequest, "exceeds the limit 1024"},
		{"colors past tightened cap", "pbqp 2 100\n", http.StatusBadRequest, "exceeds the limit 64"},
		{"oversized body", strings.Repeat("# padding\n", 1<<13), http.StatusRequestEntityTooLarge, "exceeds"},
		{"bad chain", fig2, http.StatusBadRequest, "unknown solver"},
		{"empty chain", fig2, http.StatusBadRequest, "no solvers"},
		{"bad deadline", fig2, http.StatusBadRequest, "positive Go duration"},
		{"bad cost mode", fig2, http.StatusBadRequest, "zeroinf"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			query := ""
			switch tc.name {
			case "bad chain":
				query = "chain=zebra"
			case "empty chain":
				query = "chain=%2C"
			case "bad deadline":
				query = "deadline=zebra"
			case "bad cost mode":
				query = "cost-mode=banana"
			}
			rec := post(s.Handler(), tc.body, query, nil)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.wantStatus, rec.Body.Bytes())
			}
			if tc.wantErr != "" {
				var e ErrorResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
					t.Fatalf("error body is not JSON: %s", rec.Body.Bytes())
				}
				if !strings.Contains(e.Error, tc.wantErr) {
					t.Fatalf("error %q, want it to mention %q", e.Error, tc.wantErr)
				}
			}
		})
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := newTestServer(t, Config{DefaultChain: []string{"scholz"}})
	req := httptest.NewRequest(http.MethodGet, "/v1/solve", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status %d", rec.Code)
	}
	if allow := rec.Header().Get("Allow"); allow != http.MethodPost {
		t.Fatalf("Allow %q", allow)
	}
}

// readFuzzSeeds loads the FuzzReadGraph seed corpus from
// internal/pbqp/testdata as name → graph text.
func readFuzzSeeds(t *testing.T) map[string]string {
	t.Helper()
	dir := filepath.Join("..", "pbqp", "testdata", "fuzz", "FuzzReadGraph")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("seed corpus missing: %v", err)
	}
	seeds := map[string]string{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitN(string(data), "\n", 2)
		if len(lines) != 2 {
			t.Fatalf("seed %s: unexpected corpus format", e.Name())
		}
		payload := strings.TrimSpace(lines[1])
		payload = strings.TrimPrefix(payload, "[]byte(")
		payload = strings.TrimSuffix(payload, ")")
		body, err := strconv.Unquote(payload)
		if err != nil {
			t.Fatalf("seed %s: cannot unquote %s: %v", e.Name(), payload, err)
		}
		seeds[e.Name()] = body
	}
	for _, want := range []string{"seed_fig2", "seed_duplicate_edge", "seed_absurd_header"} {
		if _, ok := seeds[want]; !ok {
			t.Fatalf("seed corpus lost %s; update this test's table", want)
		}
	}
	return seeds
}

// gate is a solver that blocks until released (or its context fires),
// reporting every start. It gives tests exact control over worker
// occupancy.
type gate struct {
	name    string
	started chan struct{}
	release chan struct{}
}

func newGate(name string) *gate {
	return &gate{name: name, started: make(chan struct{}, 1024), release: make(chan struct{})}
}

func (g *gate) Name() string { return g.name }
func (g *gate) Solve(gr *pbqp.Graph) solve.Result {
	return g.SolveCtx(context.Background(), gr)
}
func (g *gate) SolveCtx(ctx context.Context, gr *pbqp.Graph) solve.Result {
	g.started <- struct{}{}
	select {
	case <-g.release:
	case <-ctx.Done():
		return solve.Result{Cost: cost.Inf, Truncated: true}
	}
	return solve.Result{
		Selection: make(pbqp.Selection, gr.NumVertices()),
		Feasible:  true,
	}
}

// waitStarted waits for n solve starts.
func (g *gate) waitStarted(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-g.started:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d solves started", i, n)
		}
	}
}

// TestGracefulDrain fires concurrent requests, begins a drain while
// they are in flight (some running, some queued), and asserts the
// accepted ones complete with 200 while requests arriving during the
// drain get 503. Run under -race in CI.
func TestGracefulDrain(t *testing.T) {
	g := newGate("gate")
	s, err := New(Config{
		Workers:         2,
		QueueDepth:      16,
		DefaultChain:    []string{"gate"},
		DefaultDeadline: time.Minute,
		MakeSolver:      func(string) (solve.Solver, error) { return g, nil },
	})
	if err != nil {
		t.Fatal(err)
	}

	const inflight = 6
	codes := make(chan int, inflight)
	var wg sync.WaitGroup
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes <- post(s.Handler(), fig2, "", nil).Code
		}()
	}
	g.waitStarted(t, 2) // both workers busy...
	// ...and every other request admitted to the queue, so the drain
	// below owes all six of them a real answer.
	waitFor(t, func() bool { return s.adm.Depth() == inflight-2 }, "remaining requests to queue")

	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drainDone <- s.Drain(ctx)
	}()
	waitFor(t, s.adm.IsDraining, "server to enter draining")

	// New arrivals during the drain are refused with 503 + Retry-After.
	for i := 0; i < 4; i++ {
		rec := post(s.Handler(), fig2, "", nil)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("during drain: status %d, want 503", rec.Code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatal("503 without Retry-After")
		}
	}
	if rec := post(s.Handler(), fig2, "", nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz-equivalent refused: %d", rec.Code)
	}
	{
		req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("readyz during drain: %d, want 503", rec.Code)
		}
		// The readiness 503 carries the same load-derived hint as the
		// solve path, so fleet probers know when to re-check.
		if rec.Header().Get("Retry-After") == "" {
			t.Fatal("readyz 503 without Retry-After")
		}
	}
	{
		req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("healthz during drain: %d, want 200", rec.Code)
		}
	}

	// The drain must be waiting on the in-flight requests, not done.
	select {
	case err := <-drainDone:
		t.Fatalf("drain finished with %v while requests were gated", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(g.release)
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Fatalf("in-flight request got %d during drain, want 200", code)
		}
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestLoadShedding pins the 429 contract: with one worker and a
// two-slot queue, exactly three requests are admitted and every
// further arrival is shed immediately — synchronously, with no
// goroutine growth — until capacity frees up.
func TestLoadShedding(t *testing.T) {
	g := newGate("gate")
	s, err := New(Config{
		Workers:         1,
		QueueDepth:      2,
		DefaultChain:    []string{"gate"},
		DefaultDeadline: time.Minute,
		MakeSolver:      func(string) (solve.Solver, error) { return g, nil },
	})
	if err != nil {
		t.Fatal(err)
	}

	// Fill the worker, then the queue.
	codes := make(chan int, 3)
	var wg sync.WaitGroup
	for i := 0; i < 1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes <- post(s.Handler(), fig2, "", nil).Code
		}()
	}
	g.waitStarted(t, 1)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes <- post(s.Handler(), fig2, "", nil).Code
		}()
	}
	waitFor(t, func() bool { return s.adm.Depth() == 2 }, "queue to fill")

	// Everything beyond capacity is shed synchronously with 429.
	before := numGoroutines()
	for i := 0; i < 20; i++ {
		rec := post(s.Handler(), fig2, "", nil)
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("request %d past capacity: status %d, want 429", i, rec.Code)
		}
		// Adaptive hint: 2 queued jobs behind 1 worker is two full
		// drain generations past the floor, so 3 × RetryAfterFloor.
		if ra, want := rec.Header().Get("Retry-After"), strconv.Itoa(int(3*RetryAfterFloor/time.Second)); ra != want {
			t.Fatalf("Retry-After %q, want %q", ra, want)
		}
	}
	if after := numGoroutines(); after > before+3 {
		t.Fatalf("shedding grew goroutines %d → %d; queueing is not bounded", before, after)
	}
	if shed := s.Registry().Counter("requests_shed_total").Value(); shed != 20 {
		t.Fatalf("requests_shed_total = %d, want 20", shed)
	}

	close(g.release)
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Fatalf("admitted request got %d, want 200", code)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSustains64ConcurrentRequests drives 64 in-flight requests
// through a bounded pool and expects every one to succeed — the
// acceptance bar for the serving subsystem, run under -race in CI.
func TestSustains64ConcurrentRequests(t *testing.T) {
	s := newTestServer(t, Config{
		Workers:         8,
		QueueDepth:      64,
		DefaultChain:    []string{"liberty", "scholz"},
		DefaultDeadline: time.Minute,
	})
	const n = 64
	codes := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes <- post(s.Handler(), fig2, "", nil).Code
		}()
	}
	wg.Wait()
	close(codes)
	ok := 0
	for code := range codes {
		if code == http.StatusOK {
			ok++
		}
	}
	if ok != n {
		t.Fatalf("only %d/%d concurrent requests succeeded", ok, n)
	}
	if shed := s.Registry().Counter("requests_shed_total").Value(); shed != 0 {
		t.Fatalf("%d requests shed below capacity", shed)
	}
}

// panicNamer panics outside the portfolio's per-stage recovery (in
// Name, which SolveStats calls on the worker goroutine), exercising
// the worker-level panic isolation and its graph-repro logging.
type panicNamer struct{}

func (panicNamer) Name() string                   { panic("injected Name panic") }
func (panicNamer) Solve(*pbqp.Graph) solve.Result { panic("unreachable") }
func (panicNamer) SolveCtx(context.Context, *pbqp.Graph) solve.Result {
	panic("unreachable")
}

func TestWorkerPanicIsolation(t *testing.T) {
	var logged atomic.Value
	s := newTestServer(t, Config{
		DefaultChain: []string{"boom"},
		MakeSolver:   func(string) (solve.Solver, error) { return panicNamer{}, nil },
		Logf: func(format string, args ...any) {
			logged.Store(fmt.Sprintf(format, args...))
		},
	})
	rec := post(s.Handler(), fig2, "", nil)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", rec.Code, rec.Body.Bytes())
	}
	msg, _ := logged.Load().(string)
	if !strings.Contains(msg, "injected Name panic") || !strings.Contains(msg, "pbqp 3 2") {
		t.Fatalf("panic log misses panic value or graph repro:\n%s", msg)
	}
	// The pool survives: the next request solves normally.
	s2 := post(s.Handler(), fig2, "chain=boom", nil)
	if s2.Code != http.StatusInternalServerError {
		t.Fatalf("second panic request: %d", s2.Code)
	}
	if c := s.Registry().Counter("solve_panics_total").Value(); c != 2 {
		t.Fatalf("solve_panics_total = %d, want 2", c)
	}
}

func TestKnobHeadersWinOverQuery(t *testing.T) {
	s := newTestServer(t, Config{DefaultChain: []string{"scholz"}})
	rec := post(s.Handler(), fig2, "chain=zebra", map[string]string{
		"X-PBQP-Chain":     "liberty",
		"X-PBQP-Deadline":  "5s",
		"X-PBQP-Cost-Mode": "spill",
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	resp := decodeSolve(t, rec)
	if resp.Solver != "portfolio(liberty)" {
		t.Fatalf("solver %q; header did not win over query", resp.Solver)
	}
}

// TestSpillModeRunsWholeChain pins cost-mode semantics: zeroinf stops
// at the first feasible stage, spill runs the rest in search of a
// cheaper answer.
func TestSpillModeRunsWholeChain(t *testing.T) {
	s := newTestServer(t, Config{DefaultChain: []string{"liberty", "scholz"}})
	zero := decodeSolve(t, post(s.Handler(), fig2, "cost-mode=zeroinf", nil))
	if !zero.Stats.Stages[1].Skipped {
		t.Fatalf("zeroinf ran the fallback stage: %+v", zero.Stats)
	}
	spill := decodeSolve(t, post(s.Handler(), fig2, "cost-mode=spill", nil))
	if spill.Stats.Stages[1].Skipped {
		t.Fatalf("spill mode skipped the fallback stage: %+v", spill.Stats)
	}
	if !spill.Result.Feasible {
		t.Fatalf("spill result %+v", spill.Result)
	}
}

// TestMetricsSchema asserts the observability contract: request
// latency histograms per status code, stage latency histograms per
// solver, and live gauges.
func TestMetricsSchema(t *testing.T) {
	s := newTestServer(t, Config{DefaultChain: []string{"liberty", "scholz"}})
	post(s.Handler(), fig2, "", nil)
	post(s.Handler(), "not a graph", "", nil)

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	var snap struct {
		Counters   map[string]int64 `json:"counters"`
		Gauges     map[string]int64 `json:"gauges"`
		Histograms map[string]struct {
			Count   int64 `json:"count"`
			Buckets []struct {
				LE    string `json:"le"`
				Count int64  `json:"count"`
			} `json:"buckets"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/metrics is not well-formed JSON: %v", err)
	}
	if snap.Counters["http_requests_total.200"] != 1 || snap.Counters["http_requests_total.400"] != 1 {
		t.Fatalf("status counters %+v", snap.Counters)
	}
	for _, name := range []string{"http_request_seconds.200", "http_request_seconds.400", "solve_stage_seconds.liberty"} {
		h, ok := snap.Histograms[name]
		if !ok || h.Count != 1 || len(h.Buckets) == 0 {
			t.Fatalf("histogram %s missing or empty: %+v", name, snap.Histograms)
		}
		if h.Buckets[len(h.Buckets)-1].LE != "+inf" {
			t.Fatalf("histogram %s lacks the +inf bucket", name)
		}
	}
	if snap.Counters["solve_stage_skipped_total.scholz"] != 1 {
		t.Fatalf("skipped-stage counter missing: %+v", snap.Counters)
	}
	if _, ok := snap.Gauges["requests_inflight"]; !ok {
		t.Fatalf("gauges %+v", snap.Gauges)
	}
}

func numGoroutines() int { return runtime.NumGoroutine() }

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestFailpointSolvePanic drives the worker-level panic isolation
// through the server/solve failpoint instead of a bespoke panicking
// solver: the same injection point the chaos CI stage arms.
func TestFailpointSolvePanic(t *testing.T) {
	if err := failpoint.Enable("server/solve", "panic"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disable("server/solve")
	var logged atomic.Value
	s := newTestServer(t, Config{
		Logf: func(format string, args ...any) {
			logged.Store(fmt.Sprintf(format, args...))
		},
	})
	rec := post(s.Handler(), fig2, "", nil)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", rec.Code, rec.Body.Bytes())
	}
	msg, _ := logged.Load().(string)
	if !strings.Contains(msg, "injected panic at server/solve") || !strings.Contains(msg, "pbqp 3 2") {
		t.Fatalf("panic log misses failpoint panic value or graph repro:\n%s", msg)
	}
	if c := s.Registry().Counter("solve_panics_total").Value(); c != 1 {
		t.Fatalf("solve_panics_total = %d, want 1", c)
	}
	// Disarmed, the same request solves normally.
	failpoint.Disable("server/solve")
	if rec := post(s.Handler(), fig2, "", nil); rec.Code != http.StatusOK {
		t.Fatalf("disarmed request: %d, want 200", rec.Code)
	}
}

func TestRetryAfterHint(t *testing.T) {
	cases := []struct {
		depth, workers int
		want           time.Duration
	}{
		{0, 1, RetryAfterFloor},     // empty queue: the floor
		{2, 1, 3 * RetryAfterFloor}, // two generations queued
		{2, 4, 2 * RetryAfterFloor}, // more workers drain faster
		{3, 0, 4 * RetryAfterFloor}, // workers clamped to 1
		{100, 1, time.Minute},       // capped at one minute
	}
	for _, c := range cases {
		if got := retryAfterHint(c.depth, c.workers); got != c.want {
			t.Errorf("retryAfterHint(%d, %d) = %v, want %v",
				c.depth, c.workers, got, c.want)
		}
	}
}
