package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pbqprl/internal/experiments"
	"pbqprl/internal/game"
	"pbqprl/internal/gcn"
	"pbqprl/internal/mcts"
	"pbqprl/internal/net"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/router"
	"pbqprl/internal/server"
	"pbqprl/internal/tensor"
)

// Fixed serving deployment (README.md, "Configuration"): constants, not
// derived from the machine, so numbers compare across ≥2-core boxes.
const (
	serveClients  = 2 // closed loop: compilers block on the allocation
	serveWorkers  = 2
	serveK        = 25
	serveStates   = 4000
	serveDeadline = "30s" // never binding; a 504 or a truncated answer is a failure
	benchIDHeader = "X-Bench-Id"
)

var serveChain = []string{"rl-bt", "liberty", "scholz"}

// stageLabels maps the solver names in response stats to the chain's
// stage names, which the portfolio.* metrics are called after.
var stageLabels = map[string]string{"deep-rl+backtrack": "rl-bt", "liberty": "liberty", "scholz": "scholz"}

// stack is the system under test for both serve workloads: client →
// router → one pbqp-serve backend, in process but over real loopback
// sockets.
type stack struct {
	srv     *server.Server
	rt      *router.Router
	backend *httptest.Server
	front   *httptest.Server
	client  *http.Client
	fleet   *http.Client

	// evaluator counters, only advanced when tracing
	evalCalls, evalNanos atomic.Int64
}

// timedEval counts and times every evaluation an rl stage asks for.
type timedEval struct {
	inner mcts.Evaluator
	st    *stack
}

func (e timedEval) Evaluate(view gcn.View) (tensor.Vec, float64) {
	t0 := now()
	prior, value := e.inner.Evaluate(view)
	e.st.evalNanos.Add(now().Sub(t0).Nanoseconds())
	e.st.evalCalls.Add(1)
	return prior, value
}

// newStack starts the deployment. The network has seed-initialised
// weights: inference cost is what is measured and it does not depend on
// training, while a trained checkpoint would tie the inputs to the
// trainer under test. With tr non-nil both handlers are wrapped in span
// middleware and rl stages evaluate through timedEval.
func newStack(tr *tracer) (*stack, error) {
	st := &stack{}
	base := net.New(experiments.DefaultNetConfig())
	evaluator := func() mcts.Evaluator { return base.Clone() }
	if tr != nil {
		evaluator = func() mcts.Evaluator { return timedEval{inner: base.Clone(), st: st} }
	}
	srv, err := server.New(server.Config{
		Workers:      serveWorkers,
		DefaultChain: serveChain,
		K:            serveK,
		Order:        game.OrderIncLiberty,
		MaxStates:    serveStates,
		Evaluator:    evaluator,
	})
	if err != nil {
		return nil, err
	}
	st.srv = srv
	backendHandler := srv.Handler()
	if tr != nil {
		backendHandler = spanHandler(tr, "server.handle", "router.handle", canonicalBodyID, backendHandler)
	}
	st.backend = httptest.NewServer(backendHandler)
	// the router's own default transport, owned here so close can
	// drop its idle connections
	st.fleet = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     90 * time.Second,
	}}
	rt, err := router.New(router.Config{Backends: []string{st.backend.URL}, Client: st.fleet})
	if err != nil {
		st.close()
		return nil, err
	}
	st.rt = rt
	frontHandler := rt.Handler()
	if tr != nil {
		frontHandler = spanHandler(tr, "router.handle", "client.request", headerID, frontHandler)
	}
	st.front = httptest.NewServer(frontHandler)
	st.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	return st, nil
}

// close stops the deployment front to back and waits for it.
func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if st.client != nil {
		st.client.CloseIdleConnections()
	}
	if st.front != nil {
		st.front.Close()
	}
	if st.rt != nil {
		_ = st.rt.Drain(ctx) // nothing is in flight: every client has returned
	}
	if st.fleet != nil {
		st.fleet.CloseIdleConnections()
	}
	if st.backend != nil {
		st.backend.Close()
	}
	if st.srv != nil {
		_ = st.srv.Drain(ctx)
	}
}

// headerID reads the span id the client sent.
func headerID(r *http.Request) string { return r.Header.Get(benchIDHeader) }

// canonicalBodyID identifies a backend request by the SHA-256 of its
// body. The router forwards the canonical serialization, so this is the
// graph's pbqp.CanonicalHash — the id the client used — without a parse.
func canonicalBodyID(r *http.Request) string {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return ""
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// spanHandler records one span per solve request around next.
func spanHandler(tr *tracer, name, parent string, idOf func(*http.Request) string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/solve" {
			next.ServeHTTP(w, r)
			return
		}
		start := now()
		id := idOf(r)
		next.ServeHTTP(w, r)
		tr.add(name, id, parent, start, now())
	})
}

// call is one request of a serve pass and, once answered, its reply.
type call struct {
	req     *request
	suffix  string // appended to the canonical body: a fresh spelling of the same graph
	id      string // span id
	start   time.Time
	latency time.Duration
	status  int
	cache   string
	reply   []byte
	err     error
}

// send posts every call through the router from serveClients
// closed-loop clients. It returns how many calls completed inside the
// steady window — from the start until the first client finds no call
// left to send — and the window's length: after that instant the other
// client finishes its last call alone, and how long that takes depends
// on which call happened to come last, not on the system. Replies are
// kept raw; they are decoded and checked after the clock has stopped,
// so the harness adds nothing but the client itself to the window.
func (st *stack) send(calls []*call, tr *tracer) (completed int, window time.Duration) {
	var next atomic.Int64
	var wg sync.WaitGroup
	idle := make([]time.Time, serveClients)
	url := st.front.URL + "/v1/solve?deadline=" + serveDeadline
	begin := now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(calls) {
					idle[c] = now()
					return
				}
				st.post(url, calls[i], tr)
			}
		}()
	}
	wg.Wait()
	end := idle[0]
	for _, t := range idle {
		if t.Before(end) {
			end = t
		}
	}
	for _, c := range calls {
		if !c.start.Add(c.latency).After(end) {
			completed++
		}
	}
	return completed, end.Sub(begin)
}

func (st *stack) post(url string, c *call, tr *tracer) {
	body := io.Reader(bytes.NewReader(c.req.body))
	size := int64(len(c.req.body))
	if c.suffix != "" {
		body = io.MultiReader(body, strings.NewReader(c.suffix))
		size += int64(len(c.suffix))
	}
	hreq, err := http.NewRequest(http.MethodPost, url, body)
	if err != nil {
		c.err = err
		return
	}
	hreq.ContentLength = size
	if tr != nil {
		hreq.Header.Set(benchIDHeader, c.id)
	}
	c.start = now()
	resp, err := st.client.Do(hreq)
	if err != nil {
		c.err = err
		return
	}
	c.reply, c.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	end := now()
	c.latency = end.Sub(c.start)
	c.status = resp.StatusCode
	c.cache = resp.Header.Get("X-PBQP-Cache")
	tr.add("client.request", c.id, "", c.start, end)
}

// checkReply verifies one answer against the harness's own copy of the
// graph: a 200 from the expected cache path, a complete feasible
// selection, and a reported cost equal to the cost of that selection.
func checkReply(g *pbqp.Graph, status int, cache, wantCache string, reply []byte) (*server.SolveResponse, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", status, pbqp.Elide(string(reply), 200))
	}
	if cache != wantCache {
		return nil, fmt.Errorf("X-PBQP-Cache %q, want %q", cache, wantCache)
	}
	var resp server.SolveResponse
	if err := json.Unmarshal(reply, &resp); err != nil {
		return nil, fmt.Errorf("reply does not decode: %w", err)
	}
	if err := checkResult(g, resp.Result); err != nil {
		return nil, err
	}
	return &resp, nil
}

// servePass turns answered calls into a pass, checking every reply.
func servePass(calls []*call, completed int, window time.Duration, wantCache string) (*pass, []*server.SolveResponse) {
	p := &pass{throughput: ratio(float64(completed), window.Seconds()), attempted: len(calls)}
	replies := make([]*server.SolveResponse, len(calls))
	for i, c := range calls {
		p.calls = append(p.calls, c.latency)
		err := c.err
		if err == nil {
			replies[i], err = checkReply(c.req.graph, c.status, c.cache, wantCache, c.reply)
		}
		if err != nil {
			p.fail(fmt.Sprintf("request %d (%d vregs, %s): %v", i, c.req.graph.NumVertices(), c.id[:12], err))
		}
	}
	return p, replies
}

// serveBase is what both serve workloads hold: where their graphs come
// from, the deployment, and the calls of the measured pass.
type serveBase struct {
	seed     int64
	perClass int // pool graphs drawn per size class
	pool     [][]poolEntry
	st       *stack
	calls    []*call
}

func (w *serveBase) tearDown() {
	if w.st != nil {
		w.st.close()
		w.st = nil
	}
}

// --- serve_miss ---

// serveMiss sends distinct pool graphs once each: every request misses
// the router cache and runs the full chain.
type serveMiss struct {
	serveBase
	replies []*server.SolveResponse
}

func (w *serveMiss) work() map[string]int {
	return map[string]int{"requests": w.perClass * len(classVRegs), "clients": serveClients, "server_workers": serveWorkers}
}

func (w *serveMiss) setUp(tr *tracer) error {
	rng := rand.New(rand.NewSource(w.seed))
	reqs, err := drawRequests(w.pool, w.perClass, rng)
	if err != nil {
		return err
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	w.calls = w.calls[:0]
	for _, r := range reqs {
		w.calls = append(w.calls, &call{req: r, id: r.id})
	}
	w.st, err = newStack(tr)
	return err
}

func (w *serveMiss) measure(tr *tracer) (*pass, error) {
	completed, window := w.st.send(w.calls, tr)
	var p *pass
	p, w.replies = servePass(w.calls, completed, window, "miss")
	return p, nil
}

func (w *serveMiss) layers(tr *tracer, m metrics) error {
	handled := tr.named("server.handle")
	var (
		queue, solve, overhead, handler []float64
		stageNanos                      = map[string]int64{}
		wins                            = map[string]int{}
		solveNanos, wastedNanos         int64
		rlNodes, rlNanos                int64
		answered                        int
	)
	for i, resp := range w.replies {
		if resp == nil {
			continue
		}
		answered++
		c := w.calls[i]
		q, s := time.Duration(resp.QueueNanos), time.Duration(resp.SolveNanos)
		queue = append(queue, ms(q))
		solve = append(solve, ms(s))
		overhead = append(overhead, ms(c.latency-q-s))
		h := handled[c.id]
		handler = append(handler, ms(time.Duration(h.End-h.Start)-q-s))
		solveNanos += resp.SolveNanos
		for k, out := range resp.Stats.Stages {
			label := stageLabels[out.Name]
			stageNanos[label] += out.Duration.Nanoseconds()
			if k == resp.Stats.Winner {
				wins[label]++
			} else {
				wastedNanos += out.Duration.Nanoseconds()
			}
			if label == "rl-bt" {
				rlNodes += out.Result.States
				rlNanos += out.Duration.Nanoseconds()
			}
		}
		synthesizeServerSpans(tr, h, resp)
	}
	if answered == 0 {
		return fmt.Errorf("serve_miss: no request was answered, nothing to attribute")
	}
	n := float64(answered)
	routerCounters(w.st, 0, m)
	m.set("router.miss_overhead_ms_p50", percentile(overhead, 0.50), "ms")
	m.set("server.queue_wait_ms_p95", percentile(queue, 0.95), "ms")
	m.set("server.solve_ms_p50", percentile(solve, 0.50), "ms")
	m.set("server.handler_overhead_ms_p50", percentile(handler, 0.50), "ms")
	for _, stage := range serveChain {
		m.set("portfolio.stage_ms."+stage, ms(time.Duration(stageNanos[stage]))/n, "ms")
	}
	m.set("portfolio.winner_share.rl-bt", float64(wins["rl-bt"])/n, "ratio")
	m.set("portfolio.winner_share.liberty", float64(wins["liberty"])/n, "ratio")
	m.set("portfolio.wasted_share", ratio(float64(wastedNanos), float64(solveNanos)), "ratio")
	m.set("rl.nodes_per_request", float64(rlNodes)/n, "count")
	m.set("rl.nodes_per_s", ratio(float64(rlNodes), time.Duration(rlNanos).Seconds()), "1/s")
	evals, evalNanos := w.st.evalCalls.Load(), w.st.evalNanos.Load()
	m.set("net.evals_per_request", float64(evals)/n, "count")
	m.set("net.eval_us_mean", ratio(us(time.Duration(evalNanos)), float64(evals)), "us")
	m.set("net.share_of_rl", ratio(float64(evalNanos), float64(rlNanos)), "ratio")
	m.set("trace.named_share", tr.namedShare("client.request"), "ratio")
	return probeSolverLayers(w.pool, m)
}

// synthesizeServerSpans lays the backend's own report of one request —
// queue wait, then the portfolio stages back to back — into the trace
// as children of its server.handle span. The backend does not say when
// inside its handler they ran; they are anchored to end with the solve,
// which the handler leaves only to encode the reply.
func synthesizeServerSpans(tr *tracer, handle span, resp *server.SolveResponse) {
	child := func(name string, start, end int64) {
		tr.addSpan(span{Name: name, ID: handle.ID, Parent: handle.Name, Start: start, End: end})
	}
	solveStart := handle.End - resp.SolveNanos
	child("server.queue", solveStart-resp.QueueNanos, solveStart)
	at := solveStart
	for _, out := range resp.Stats.Stages {
		if out.Skipped {
			continue
		}
		child("portfolio.stage."+stageLabels[out.Name], at, at+out.Duration.Nanoseconds())
		at += out.Duration.Nanoseconds()
	}
}

// routerCounters reads the router's and backend's own counters.
// fillMisses is the number of cache misses set-up caused on purpose;
// the hit ratio is of the measured traffic only.
func routerCounters(st *stack, fillMisses int64, m metrics) {
	snap := st.rt.Registry().Snapshot()
	hits := snap.Counters["router_cache_hits_total"]
	misses := snap.Counters["router_cache_misses_total"] - fillMisses
	m.set("router.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")
	failovers := int64(0)
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "router_backend_failovers_total.") {
			failovers += v
		}
	}
	m.set("router.coalesced_total", float64(snap.Counters["router_coalesced_total"]), "count")
	m.set("router.failovers_total", float64(failovers), "count")
	m.set("server.shed_total", float64(st.srv.Registry().Counter("requests_shed_total").Value()), "count")
}

func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// --- serve_hot ---

// serveHot replays recompile traffic over graphs the router has
// already answered: every request must be served from its cache.
type serveHot struct {
	serveBase
	requests int
	hot      []*request
}

// hotRespellEvery makes every fourth request a fresh spelling (a
// comment appended) of a hot graph and the rest byte-identical repeats.
// An even split would put the median between the two paths' latency
// modes, where it jumps from run to run; at one in four the median sits
// inside the byte-identical mode and the tail percentile inside the
// respelled one, so each end-to-end latency tracks one path.
const hotRespellEvery = 4

func (w *serveHot) work() map[string]int {
	return map[string]int{"requests": w.requests, "hot_graphs": w.perClass * len(classVRegs),
		"respell_every": hotRespellEvery, "clients": serveClients}
}

func (w *serveHot) setUp(tr *tracer) error {
	rng := rand.New(rand.NewSource(w.seed))
	classMajor, err := drawRequests(w.pool, w.perClass, rng)
	if err != nil {
		return err
	}
	// Popularity rank r is a graph of size class r mod 6: Zipf puts
	// about a fifth of the traffic on rank 0, and body size is what a
	// cache hit costs, so letting the seed also pick the popular sizes
	// would make it pick the answer. The seed picks the instances.
	w.hot = w.hot[:0]
	for j := 0; j < w.perClass; j++ {
		for c := range classVRegs {
			w.hot = append(w.hot, classMajor[c*w.perClass+j])
		}
	}
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(w.hot)-1))
	w.calls = w.calls[:0]
	for i := 0; i < w.requests; i++ {
		r := w.hot[zipf.Uint64()]
		c := &call{req: r, id: r.id + "#" + strconv.Itoa(i)}
		if i%hotRespellEvery == hotRespellEvery-1 {
			c.suffix = "# recompile " + strconv.Itoa(i) + "\n"
		}
		w.calls = append(w.calls, c)
	}
	if w.st, err = newStack(tr); err != nil {
		return err
	}
	// Fill the cache: each hot graph solved once through the router.
	fill := make([]*call, len(w.hot))
	for i, r := range w.hot {
		fill[i] = &call{req: r, id: r.id}
	}
	w.st.send(fill, nil)
	if p, _ := servePass(fill, 0, 0, "miss"); p.failed > 0 {
		return fmt.Errorf("serve_hot: cache fill: %s", p.failures[0])
	}
	tr.reset()
	return nil
}

func (w *serveHot) measure(tr *tracer) (*pass, error) {
	completed, window := w.st.send(w.calls, tr)
	p, _ := servePass(w.calls, completed, window, "hit")
	return p, nil
}

func (w *serveHot) layers(tr *tracer, m metrics) error {
	var same, respelled []float64
	for _, c := range w.calls {
		if c.suffix == "" {
			same = append(same, ms(c.latency))
		} else {
			respelled = append(respelled, ms(c.latency))
		}
	}
	m.set("router.hit_ms_p50", percentile(same, 0.50), "ms")
	m.set("router.respell_hit_ms_p50", percentile(respelled, 0.50), "ms")
	routerCounters(w.st, int64(len(w.hot)), m)
	m.set("trace.named_share", tr.namedShare("client.request"), "ratio")
	return probeGraphIO(w.hot[len(w.hot)-1], m)
}
