// Package router is the fleet front of the PBQP allocation service: a
// thin HTTP shard router that spreads solve traffic across N
// pbqp-serve backends and keeps answering while any replica survives.
//
// The request path, in order:
//
//   - canonicalize: the body is read once, parsed, and written back
//     once in the canonical form (the byte-stable serialization pinned
//     by FuzzReadGraph): the SHA-256 of those bytes is
//     pbqp.CanonicalHash, so two spellings of the same graph are the
//     same key everywhere downstream, and on a miss they are the
//     forwarded body; a bytes → canonical-hash memo in the same LRU,
//     keyed by a per-router GHASH tag of the bytes, lets byte-identical
//     repeats skip the parse and the SHA-256 entirely, and lets a new
//     spelling of a known graph skip the SHA-256, so SHA-256 runs once
//     per distinct graph while its memo entry lives;
//   - cache: a memory-bounded LRU solution cache answers repeat
//     traffic without touching a backend — register allocation is
//     dominated by recompiles of the same functions;
//   - coalesce: N identical in-flight requests collapse into one
//     backend solve (singleflight); followers wait for the leader's
//     answer under their own deadlines;
//   - shard: the graph hash picks a backend by consistent hashing, so
//     repeat traffic for a graph keeps hitting the same replica and
//     adding a backend remaps only ~1/N of the key space;
//   - forward: per-try timeouts are carved from the request deadline,
//     failures (connection errors, 5xx, timeouts) fail over along the
//     ring with capped exponential backoff, and backend
//     Retry-After hints are honored;
//   - protect: active health checks (/readyz probes) plus passive
//     circuit breakers (consecutive-failure trip, half-open probes)
//     eject dead or draining backends and re-admit them without
//     operator action;
//   - degrade: under total backend loss the router keeps serving cache
//     hits and sheds the rest with 503 + Retry-After instead of
//     hanging.
//
// The router answers through the internal/server Shell, the front door
// a backend has: the same endpoints, per-status request accounting,
// JSON errors and admission gate (bounded forwarding concurrency, load
// shedding, drain barrier). Its own metric families cover cache
// hits/misses/evictions, canonical SHA-256 passes, coalesced requests,
// per-backend tries and failovers, and breaker state.
package router

import (
	"bytes"
	"context"
	"crypto/aes"
	"crypto/cipher"
	crand "crypto/rand"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"pbqprl/internal/failpoint"
	"pbqprl/internal/metrics"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/server"
)

// Config tunes a Router. Backends is the only required field; every
// other zero value falls back to the documented default.
type Config struct {
	// Backends are the pbqp-serve base URLs, e.g.
	// "http://10.0.0.1:8723". At least one is required.
	Backends []string
	// CacheBytes bounds the solution cache's memory. Default: 64 MiB;
	// negative disables caching.
	CacheBytes int64
	// MaxTries is the total forwarding attempts per request across all
	// backends. Default: 4.
	MaxTries int
	// BackoffBase/BackoffMax shape the capped exponential backoff
	// between failover rounds. Defaults: 25ms / 500ms.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerThreshold is the consecutive-failure count that trips a
	// backend's circuit breaker open. Default: 5.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before
	// admitting a half-open probe request. Default: 2s.
	BreakerCooldown time.Duration
	// HealthInterval is the active health-check period; 0 disables
	// active checking (passive breakers still run). cmd/pbqp-router
	// defaults its flag to 1s.
	HealthInterval time.Duration
	// HealthTimeout bounds one active probe. Default: 1s.
	HealthTimeout time.Duration
	// Workers bounds the forwards in flight at once and QueueDepth
	// the ones waiting for a slot. Forwarding is I/O-bound, so the
	// defaults are larger than a backend's: 256 and 512.
	Workers    int
	QueueDepth int
	// MaxRequestBytes caps the request body. Default: 4 MiB.
	MaxRequestBytes int64
	// DefaultDeadline/MaxDeadline mirror the backend's deadline knobs.
	// Defaults: 2s / 30s.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// ReadLimits tightens the PBQP parser caps for request bodies.
	ReadLimits pbqp.ReadLimits
	// Client issues backend requests; nil builds one with a pooled
	// transport and no global timeout (per-try contexts govern).
	Client *http.Client
	// Logf receives operational log lines. Nil uses a no-op.
	Logf func(format string, args ...any)
}

const (
	// maxResponseBytes caps a backend response body.
	maxResponseBytes = 16 << 20
	// minTryTimeout floors the per-try deadline slice so late tries
	// are not starved into guaranteed failure.
	minTryTimeout = 50 * time.Millisecond
)

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.MaxTries <= 0 {
		c.MaxTries = 4
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 25 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 500 * time.Millisecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = time.Second
	}
	if c.Workers <= 0 {
		c.Workers = 256
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 512
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 4 << 20
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 2 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 30 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Router is the fleet front. Create with New, expose via Handler,
// stop via Drain.
type Router struct {
	cfg      Config
	adm      *server.Admission
	shell    *server.Shell
	reg      *metrics.Registry
	cache    *Cache
	flights  *flightGroup
	ring     *ring
	backends []*backend
	client   *http.Client

	// memoKey tags bytes for the memo's "r|" keys under memoNonce,
	// which stays all zeros (see rawCacheKey).
	memoKey   cipher.AEAD
	memoNonce [12]byte

	healthCancel context.CancelFunc
	healthDone   chan struct{}
}

// Sentinel errors for the forward path, mapped to HTTP statuses in
// handleSolve.
var (
	// errNoBackends means no backend was available for the whole
	// attempt budget: everything ejected, tripped, or hinting away.
	errNoBackends = errors.New("router: no backend available")
	// errUpstream wraps the last upstream failure after the attempt
	// budget was exhausted.
	errUpstream = errors.New("router: all forwarding attempts failed")
)

// New builds a Router over the configured backend fleet and starts its
// active health loop (when HealthInterval > 0). It draws the router's
// memo key from crypto/rand; under GODEBUG=fips140=only cipher.NewGCM
// refuses to build the tagger and New returns that error.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("router: at least one backend is required")
	}
	memoKey, err := newMemoKey()
	if err != nil {
		return nil, err
	}
	r := &Router{
		cfg:     cfg,
		memoKey: memoKey,
		adm:     server.NewAdmission(cfg.Workers, cfg.QueueDepth),
		cache:   NewCache(cfg.CacheBytes),
		flights: newFlightGroup(),
		client:  cfg.Client,
	}
	r.shell = server.NewShell("router", r.adm, r.handleSolve, func() {
		r.publishBackendGauges()
		r.publishCacheGauges()
	})
	r.reg = r.shell.Registry()
	seen := map[string]bool{}
	for _, addr := range cfg.Backends {
		b, err := newBackend(addr)
		if err != nil {
			return nil, err
		}
		if seen[b.addr] {
			return nil, fmt.Errorf("router: duplicate backend %q", addr)
		}
		seen[b.addr] = true
		r.backends = append(r.backends, b)
	}
	r.ring = newRing(cfg.Backends)
	r.publishBackendGauges()
	r.healthDone = make(chan struct{})
	if cfg.HealthInterval > 0 {
		var hctx context.Context
		hctx, r.healthCancel = context.WithCancel(context.Background())
		go r.healthLoop(hctx)
	} else {
		close(r.healthDone)
	}
	return r, nil
}

// Handler returns the router's HTTP handler.
func (r *Router) Handler() http.Handler { return r.shell.Handler() }

// Registry returns the router's metrics registry.
func (r *Router) Registry() *metrics.Registry { return r.reg }

// Drain gracefully shuts the forward path down: admission flips to
// draining (new solves and readyz answer 503), accepted requests run
// to completion, and the health loop stops.
func (r *Router) Drain(ctx context.Context) error {
	r.cfg.Logf("router: draining (queued: %d)", r.adm.Depth())
	err := r.adm.Drain(ctx)
	if r.healthCancel != nil {
		r.healthCancel()
	}
	<-r.healthDone
	r.client.CloseIdleConnections()
	if err != nil {
		r.cfg.Logf("router: drain incomplete: %v", err)
		return err
	}
	r.cfg.Logf("router: drain complete")
	return nil
}

// now is the router's only wall-clock read point, for breaker timing
// and Retry-After windows.
func now() time.Time {
	// Serving-path timing is operational (deadlines, breakers, latency), never solver input.
	return time.Now()
}

// handleSolve answers POST /v1/solve behind the shell's method and
// drain checks: canonicalize, consult the cache, coalesce, forward with
// failover. A byte-identical hit costs a read of the body into a pooled
// buffer, one GHASH pass and two LRU lookups.
func (r *Router) handleSolve(w http.ResponseWriter, req *http.Request) {
	parsed, err := server.ParseKnobs(req, r.cfg.DefaultDeadline, r.cfg.MaxDeadline)
	if err != nil {
		r.shell.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	knobs := knobs{chain: strings.Join(parsed.Chain, ","), costMode: parsed.CostMode}

	// Canonicalize: key every downstream decision on the canonical
	// graph hash so two spellings of the same graph share a cache slot,
	// a flight, and a shard. The request bytes are tagged first
	// (rawCacheKey, a GHASH pass) and memoized against the canonical
	// hash in the same bounded LRU: byte-identical repeats (the dominant
	// recompile traffic) skip the parse and the SHA-256 entirely. A new
	// spelling pays one parse and one canonical serialization
	// (BenchmarkRouterHit's respelled case), whose bytes are tagged and
	// looked up in the memo too, so SHA-256 runs only for a graph the
	// memo does not know; on a miss those bytes are the body the backend
	// gets. Within that parse an edge line whose costs are spelled as an
	// earlier line's is looked up, not decoded, and the write copies the
	// text of a matrix it has just formatted, so most edge lines of a
	// respelled ATE body cost a map lookup and a copy.
	// The body lands in a pooled buffer, grown from Content-Length only
	// when it is under the cap; bytes.MinRead of slack lets ReadFrom
	// meet EOF without growing it. raw is that buffer's bytes, so
	// nothing may keep it past this handler: the memo stores copies of
	// hashes, and the flight below forwards a copy of canon. canon is
	// cut from the same pool and goes back with raw; the copy is the
	// flight's, because http.Transport may still read a request body
	// after Do returns.
	body := bodyPool.Get().(*bytes.Buffer)
	defer bodyPool.Put(body)
	body.Reset()
	if n := req.ContentLength; n > 0 && n <= r.cfg.MaxRequestBytes {
		body.Grow(int(n) + bytes.MinRead)
	}
	_, err = body.ReadFrom(http.MaxBytesReader(w, req.Body, r.cfg.MaxRequestBytes))
	raw := body.Bytes()
	if err != nil {
		r.shell.BodyError(w, err)
		return
	}
	var canon *bytes.Buffer // the canonical serialization, once this request has made it
	defer func() {
		if canon != nil {
			bodyPool.Put(canon)
		}
	}()
	var sum [sha256.Size]byte
	rawKey := r.rawCacheKey(raw)
	if !r.memoGet(rawKey, &sum) {
		if canon, err = r.canonicalize(raw); err != nil {
			r.shell.BodyError(w, err)
			return
		}
		// A new spelling of a graph the memo knows under another
		// spelling (its canonical one, which every earlier miss keyed)
		// takes the hash from there. Write→Read→Write is byte-stable
		// (FuzzReadGraph), so both entries name the same hash.
		canonKey := rawKey
		if !bytes.Equal(canon.Bytes(), raw) {
			canonKey = r.rawCacheKey(canon.Bytes())
		}
		if canonKey == rawKey || !r.memoGet(canonKey, &sum) {
			sum = sha256.Sum256(canon.Bytes()) // pbqp.CanonicalHash, of bytes already in hand
			r.reg.Counter("router_canonical_hashes_total").Inc()
			if canonKey != rawKey {
				r.cache.Put(canonKey, 0, append([]byte(nil), sum[:]...))
			}
		}
		r.cache.Put(rawKey, 0, append([]byte(nil), sum[:]...))
	}
	key := cacheKey(sum, knobs)

	if status, cached, ok := r.cache.Get(key); ok {
		r.reg.Counter("router_cache_hits_total").Inc()
		w.Header().Set("X-PBQP-Cache", "hit")
		writeRaw(w, status, cached)
		return
	}
	r.reg.Counter("router_cache_misses_total").Inc()

	// A raw-memo hit that misses the solution cache (evicted, or a new
	// knob combination) still needs the canonical body to forward.
	if canon == nil {
		if canon, err = r.canonicalize(raw); err != nil {
			r.shell.BodyError(w, err)
			return
		}
	}

	// The solve context is detached from this client's connection: a
	// coalesced flight may be feeding many waiters, and the leader
	// hanging up must not strand the followers. The deadline still
	// binds it, so an abandoned flight dies with the request budget.
	solveCtx, cancel := context.WithTimeout(context.WithoutCancel(req.Context()), parsed.Deadline)
	defer cancel()

	// The leader forwards through the admission gate: bounded
	// concurrency, load shedding, and a drain barrier, exactly like the
	// backend's solves.
	res, leader := r.flights.Do(req.Context(), key, func() (res flightResult) {
		body := bytes.Clone(canon.Bytes())
		if err := r.adm.Run(func() { res = r.forward(solveCtx, body, sum, knobs) }); err != nil {
			res = flightResult{err: err}
		}
		return res
	})
	if !leader {
		r.reg.Counter("router_coalesced_total").Inc()
	}

	if res.err != nil {
		switch {
		case errors.Is(res.err, server.ErrQueueFull), errors.Is(res.err, server.ErrDraining):
			r.shell.Refuse(w, res.err)
		case errors.Is(res.err, errNoBackends):
			r.reg.Counter("requests_shed_total").Inc()
			r.shell.Shed(w, http.StatusServiceUnavailable, "no backend available; retry after backoff")
		case errors.Is(res.err, context.DeadlineExceeded), errors.Is(res.err, context.Canceled):
			r.shell.Error(w, http.StatusGatewayTimeout, "deadline exhausted before any backend answered")
		default:
			r.shell.Error(w, http.StatusBadGateway, res.err.Error())
		}
		return
	}

	if cacheable(res.status, res.body) {
		r.cache.Put(key, res.status, res.body)
		r.publishCacheGauges()
	}
	if leader {
		w.Header().Set("X-PBQP-Cache", "miss")
	} else {
		w.Header().Set("X-PBQP-Cache", "coalesced")
	}
	writeRaw(w, res.status, res.body)
}

// forward pushes one solve to the fleet: walk the key's replica chain,
// carve a per-try timeout from the remaining deadline, fail over on
// connection errors / 5xx / timeouts with capped exponential backoff,
// and honor backend Retry-After hints. The loop is bounded by
// MaxTries and polls ctx at every turn, so a request can never hang
// past its deadline. body is the canonical serialization sum was hashed
// from, so backends see identical bodies for identical graphs across
// every spelling and every retry.
//
// TestForwardCancelledMakesNoTry holds the per-try poll.
func (r *Router) forward(ctx context.Context, body []byte, sum [sha256.Size]byte, k knobs) flightResult {
	candidates := r.ring.successors(sum)
	backoff := r.cfg.BackoffBase
	var lastErr error
	for try := 0; try < r.cfg.MaxTries; try++ {
		if err := ctx.Err(); err != nil {
			return flightResult{err: err}
		}
		b := r.pickBackend(candidates, try)
		if b == nil {
			// Nobody is admitted right now. If no backend is even
			// health-ready the fleet is gone: shed instead of burning
			// the deadline. Otherwise a breaker cooldown or Retry-After
			// window is in the way — wait it out under the deadline.
			if !r.anyReady() {
				return flightResult{err: errNoBackends}
			}
			if !sleepCtx(ctx, backoff) {
				return flightResult{err: ctx.Err()}
			}
			backoff = nextBackoff(backoff, r.cfg.BackoffMax)
			continue
		}
		r.reg.Counter("router_backend_tries_total." + b.label).Inc()
		status, respBody, retryAfter, err := r.tryOnce(ctx, b, body, k, try)
		if err == nil && status != http.StatusTooManyRequests && status < 500 {
			b.success()
			r.publishBackendGauges()
			return flightResult{status: status, body: respBody}
		}

		// Retryable failure: classify, record, fail over.
		r.reg.Counter("router_backend_failovers_total." + b.label).Inc()
		switch {
		case err != nil:
			lastErr = err
			r.noteFailure(b, "transport error: "+err.Error())
		case status == http.StatusTooManyRequests, status == http.StatusServiceUnavailable:
			// The backend answered coherently but asked for space
			// (shedding or draining): honor its hint, no breaker
			// penalty.
			lastErr = fmt.Errorf("backend %s answered %d", b.label, status)
			b.hintRetryAfter(now().Add(retryAfter))
		default: // other 5xx
			lastErr = fmt.Errorf("backend %s answered %d", b.label, status)
			r.noteFailure(b, fmt.Sprintf("status %d", status))
		}

		// Back off only once per full lap of the replica chain:
		// failover to the next replica is immediate, hammering the
		// same shrinking set of survivors is not.
		if (try+1)%len(candidates) == 0 {
			if !sleepCtx(ctx, backoff) {
				return flightResult{err: ctx.Err()}
			}
			backoff = nextBackoff(backoff, r.cfg.BackoffMax)
		}
	}
	if lastErr == nil {
		return flightResult{err: errNoBackends}
	}
	return flightResult{err: fmt.Errorf("%w (last: %v)", errUpstream, lastErr)}
}

// tryOnce sends one request to one backend under a timeout carved from
// the remaining request budget: remaining/(tries left), floored at
// minTryTimeout, so early failures leave later tries usable slices.
// TestHungReplicaLeavesTimeToFailOver holds the slice.
func (r *Router) tryOnce(ctx context.Context, b *backend, reqBody []byte, k knobs, try int) (status int, body []byte, retryAfter time.Duration, err error) {
	deadline, ok := ctx.Deadline()
	remaining := r.cfg.DefaultDeadline
	if ok {
		remaining = time.Until(deadline)
	}
	if remaining <= 0 {
		return 0, nil, 0, context.DeadlineExceeded
	}
	triesLeft := r.cfg.MaxTries - try
	slice := remaining / time.Duration(triesLeft)
	if slice < minTryTimeout {
		slice = minTryTimeout
	}
	if slice > remaining {
		slice = remaining
	}
	tryCtx, cancel := context.WithTimeout(ctx, slice)
	defer cancel()

	// Chaos hook: an armed router/forward failpoint stands in for a
	// connection that never establishes.
	if err := failpoint.Hit("router/forward"); err != nil {
		return 0, nil, 0, err
	}

	req, err := http.NewRequestWithContext(tryCtx, http.MethodPost,
		b.addr+"/v1/solve", bytes.NewReader(reqBody))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "text/plain")
	req.Header.Set(server.HeaderDeadline, slice.String())
	if k.chain != "" {
		req.Header.Set(server.HeaderChain, k.chain)
	}
	req.Header.Set(server.HeaderCostMode, k.costMode)

	resp, err := r.client.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	defer drainBody(resp)
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
	if err != nil {
		// A torn response (connection cut mid-body, short read against
		// Content-Length) is a transport failure: fail over.
		return 0, nil, 0, fmt.Errorf("reading backend response: %w", err)
	}
	// Chaos hook: an armed router/forward/read failpoint stands in for
	// a response that tore after the status line.
	if err := failpoint.Hit("router/forward/read"); err != nil {
		return 0, nil, 0, err
	}
	if len(respBody) > maxResponseBytes {
		return 0, nil, 0, fmt.Errorf("backend response exceeds %d bytes", maxResponseBytes)
	}
	return resp.StatusCode, respBody, parseRetryAfter(resp.Header.Get("Retry-After")), nil
}

// pickBackend scans the key's replica chain, starting at the attempt
// offset, for the first backend the breakers and health state admit.
func (r *Router) pickBackend(candidates []int, try int) *backend {
	if len(candidates) == 0 {
		return nil
	}
	t := now()
	start := try % len(candidates)
	for i := 0; i < len(candidates); i++ {
		b := r.backends[candidates[(start+i)%len(candidates)]]
		if ok, _ := b.admit(t, r.cfg.BreakerCooldown); ok {
			return b
		}
	}
	return nil
}

// anyReady reports whether at least one backend is health-ready
// (breaker state aside) — the difference between "wait for a cooldown"
// and "the fleet is gone".
func (r *Router) anyReady() bool {
	for _, b := range r.backends {
		if _, ready := b.snapshot(); ready {
			return true
		}
	}
	return false
}

// noteFailure records a request-path failure on b, publishing the trip
// counter and breaker gauge when the breaker state changed.
func (r *Router) noteFailure(b *backend, why string) {
	if b.failure(now(), r.cfg.BreakerThreshold) {
		r.reg.Counter("router_breaker_trips_total." + b.label).Inc()
		r.cfg.Logf("router: breaker open for backend %s: %s", b.label, why)
	}
	r.publishBackendGauges()
}

// publishBackendGauges mirrors each backend's breaker state
// (0 closed, 1 half-open, 2 open) and readiness into the registry.
func (r *Router) publishBackendGauges() {
	for _, b := range r.backends {
		state, ready := b.snapshot()
		r.reg.Gauge("router_breaker_state." + b.label).Set(state)
		rdy := int64(0)
		if ready {
			rdy = 1
		}
		r.reg.Gauge("router_backend_ready." + b.label).Set(rdy)
	}
}

// publishCacheGauges mirrors the cache's eviction count and memory
// footprint into the registry (hits and misses are counted inline on
// the request path). The eviction counter advances by the delta
// against the cache's own total, so publishing at scrape time and
// after inserts stays idempotent.
func (r *Router) publishCacheGauges() {
	r.syncCounter("router_cache_evictions_total", r.cache.Evictions())
	r.reg.Gauge("router_cache_bytes").Set(r.cache.Bytes())
	r.reg.Gauge("router_cache_entries").Set(int64(r.cache.Len()))
}

// syncCounter advances the named counter to total (counters only move
// forward, so publish the delta).
func (r *Router) syncCounter(name string, total int64) {
	c := r.reg.Counter(name)
	if d := total - c.Value(); d > 0 {
		c.Add(d)
	}
}

// knobs are the parsed request knobs that shape the answer — and
// therefore the cache key — as they are forwarded.
type knobs struct {
	chain    string // the chain comma-joined; "" = backend default
	costMode string // "zeroinf" or "spill"
}

// canonicalize parses a buffered request body under the hardening caps
// and returns its canonical serialization, the bytes pbqp.CanonicalHash
// hashes, which are also the body a backend is sent, in a bodyPool
// buffer that is the caller's to put back.
func (r *Router) canonicalize(raw []byte) (*bytes.Buffer, error) {
	g, err := pbqp.ReadWithLimits(bytes.NewReader(raw), r.cfg.ReadLimits)
	if err != nil {
		return nil, err
	}
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	dst := buf.AvailableBuffer()
	if cap(dst) < len(raw) {
		// Rarely much longer than a spelling; sized as handleSolve sizes
		// a body, so that either may reuse the other's buffer.
		dst = make([]byte, 0, len(raw)+bytes.MinRead)
	}
	// A graph just read has no dead vertex for AppendText to refuse.
	canon, err := pbqp.AppendText(dst, g)
	*buf = *bytes.NewBuffer(canon) // the pool keeps what AppendText grew
	return buf, err
}

// cacheKey builds the content-addressed key: the canonical graph hash
// plus every knob that changes the answer. The deadline is deliberately
// excluded — a cached complete answer satisfies any deadline. The "s|"
// prefix keeps solution entries disjoint from raw-memo entries in the
// shared LRU.
func cacheKey(sum [sha256.Size]byte, k knobs) string {
	return "s|" + string(sum[:]) + "|" + k.chain + "|" + k.costMode
}

// bodyPool recycles handleSolve's request buffers and canonicalize's:
// a serve_hot hit otherwise allocates (and the collector later frees) a
// buffer of the body's length, 50–263 KB, for each of them.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// newMemoKey draws a fresh 16-byte AES key from crypto/rand and builds
// the GCM instance rawCacheKey tags with.
func newMemoKey() (cipher.AEAD, error) {
	var k [16]byte
	if _, err := crand.Read(k[:]); err != nil {
		return nil, fmt.Errorf("router: memo key: %w", err)
	}
	block, err := aes.NewCipher(k[:])
	if err != nil {
		return nil, fmt.Errorf("router: memo key: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("router: memo key: %w", err)
	}
	return gcm, nil
}

// rawCacheKey keys the bytes → canonical-hash memo: "r|" plus GCM's
// 16-byte tag over b as additional data, which is GHASH of b under
// H = AES_K(0), masked by a constant, with K this router's secret key.
// A repeat of the exact same bytes, raw or canonical, resolves its
// canonical hash without a parse or a SHA-256, and GHASH reads a 263 KB
// body in about a seventh of SHA-256's time (DESIGN §11).
//
// Two distinct bodies of at most ℓ 16-byte blocks get the same tag with
// probability at most (ℓ+1)/2¹²⁸ over the key, and a false hit would
// serve another graph's allocation. The bound holds only while the key
// is secret, so each router draws its own and neither it nor a tag ever
// leaves the process; a hash that is not cryptographically secure
// (hash/maphash says so of itself) gives no such bound. Every tag is
// sealed under the one all-zero nonce: nothing is encrypted and no tag
// leaves the process, so reusing it costs nothing. GCM's Seal reads
// only its expanded key and hash table, so the concurrent handlers
// share one AEAD.
func (r *Router) rawCacheKey(b []byte) string {
	var key [2 + 16]byte
	copy(key[:], "r|")
	return string(r.memoKey.Seal(key[:2], r.memoNonce[:], nil, b))
}

// memoGet looks key up in the memo, copying the canonical hash it
// names into sum.
func (r *Router) memoGet(key string, sum *[sha256.Size]byte) bool {
	_, memo, ok := r.cache.Get(key)
	if !ok || len(memo) != sha256.Size {
		return false
	}
	copy(sum[:], memo)
	return true
}

// cacheable decides whether an upstream answer may be replayed to
// future requests: complete feasible solves (200, not truncated) and
// complete infeasibility verdicts (422). Truncated answers depend on
// the deadline that produced them and are never cached.
func cacheable(status int, body []byte) bool {
	switch status {
	case http.StatusUnprocessableEntity:
		return true
	case http.StatusOK:
		var probe struct {
			Result struct {
				Truncated bool `json:"truncated"`
			} `json:"result"`
		}
		if err := json.Unmarshal(body, &probe); err != nil {
			return false
		}
		return !probe.Result.Truncated
	default:
		return false
	}
}

// nextBackoff doubles the backoff up to the configured ceiling.
func nextBackoff(d, ceiling time.Duration) time.Duration {
	d *= 2
	if d > ceiling {
		d = ceiling
	}
	return d
}

// sleepCtx sleeps d or until ctx is done, reporting whether the full
// sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// parseRetryAfter reads a Retry-After header (whole seconds), falling
// back to server.RetryAfterFloor when absent or malformed.
func parseRetryAfter(v string) time.Duration {
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	return server.RetryAfterFloor
}

// drainBody finishes and closes a response body so the transport can
// reuse the connection.
func drainBody(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}

// writeRaw replays a stored upstream answer.
func writeRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}
