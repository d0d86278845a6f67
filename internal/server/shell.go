package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"pbqprl/internal/metrics"
)

// Shell is the HTTP front door pbqp-serve and pbqp-router share: the
// endpoint set (POST /v1/solve, GET /metrics, /healthz, /readyz and the
// /debug/pprof profiles), per-status request accounting, the JSON error
// body, and the refusals of the daemon's admission gate with their
// load-derived Retry-After hints. A daemon brings only its solve body
// and, for gauges it samples at scrape time, a hook.
type Shell struct {
	name   string
	reg    *metrics.Registry
	adm    *Admission
	solve  http.HandlerFunc
	scrape func()
	mux    *http.ServeMux
}

// NewShell mounts the endpoints. name is the daemon as its refusals
// call it ("server is draining; …"). adm gates the daemon's work; its
// queue scales the Retry-After hint up from RetryAfterFloor
// (retryAfterHint). solve answers each POST /v1/solve the shell has not
// refused already (wrong method, draining), writing through the shell's
// status recorder. scrape, when not nil, runs before every /metrics
// snapshot.
func NewShell(name string, adm *Admission, solve http.HandlerFunc, scrape func()) *Shell {
	sh := &Shell{
		name:   name,
		reg:    metrics.NewRegistry(),
		adm:    adm,
		solve:  solve,
		scrape: scrape,
		mux:    http.NewServeMux(),
	}
	sh.mux.HandleFunc("/v1/solve", sh.handleSolve)
	sh.mux.HandleFunc("/metrics", sh.handleMetrics)
	sh.mux.HandleFunc("/healthz", sh.handleHealthz)
	sh.mux.HandleFunc("/readyz", sh.handleReadyz)
	sh.mux.HandleFunc("/debug/pprof/", pprof.Index)
	sh.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	sh.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	sh.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	sh.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return sh
}

// Handler returns the daemon's HTTP handler.
func (sh *Shell) Handler() http.Handler { return sh.mux }

// Registry returns the daemon's metrics registry.
func (sh *Shell) Registry() *metrics.Registry { return sh.reg }

// handleSolve is POST /v1/solve: every answer is counted and timed by
// its status, and the method and drain checks come before the daemon's
// own work.
func (sh *Shell) handleSolve(w http.ResponseWriter, r *http.Request) {
	start := now()
	sw := &statusWriter{ResponseWriter: w}
	defer func() {
		code := strconv.Itoa(max(sw.status, http.StatusOK)) // 0: nothing written, which net/http sends as 200
		sh.reg.Counter("http_requests_total." + code).Inc()
		sh.reg.Histogram("http_request_seconds." + code).Observe(now().Sub(start))
	}()

	if r.Method != http.MethodPost {
		sw.Header().Set("Allow", http.MethodPost)
		sh.Error(sw, http.StatusMethodNotAllowed, "POST a PBQP graph in the textual format")
		return
	}
	if sh.adm.IsDraining() {
		sh.Refuse(sw, ErrDraining)
		return
	}
	sh.solve(sw, r)
}

// handleMetrics serves the registry snapshot. The admission gauges are
// sampled here rather than written from request handlers: concurrent
// handlers racing Gauge.Set could persist a stale snapshot, whereas
// sampling at scrape time always reflects the gate as it is now.
func (sh *Shell) handleMetrics(w http.ResponseWriter, r *http.Request) {
	sh.reg.Gauge("queue_depth").Set(int64(sh.adm.Depth()))
	sh.reg.Gauge("requests_inflight").Set(int64(sh.adm.InFlight()))
	if sh.scrape != nil {
		sh.scrape()
	}
	sh.reg.ServeHTTP(w, r)
}

// handleHealthz answers liveness: 200 as long as the process serves
// HTTP, draining included — a draining daemon is still healthy, just
// not ready.
func (sh *Shell) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"draining": sh.adm.IsDraining(),
	})
}

// handleReadyz answers readiness: 200 while accepting, 503 once
// draining so load balancers stop routing new work here. The 503
// carries the same load-derived Retry-After hint as the solve path, so
// a router's health prober knows when to re-check a draining replica.
func (sh *Shell) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if sh.adm.IsDraining() {
		w.Header().Set("Retry-After", sh.retryAfter())
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}

// ErrorResponse is the JSON body of every non-2xx answer either daemon
// makes itself.
type ErrorResponse struct {
	Error string `json:"error"`
}

// Error sends a JSON error body with the given status.
func (sh *Shell) Error(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg})
}

// Shed answers a request the daemon cannot take now: the status with a
// Retry-After hint.
func (sh *Shell) Shed(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Retry-After", sh.retryAfter())
	sh.Error(w, status, msg)
}

// Refuse answers a call the admission gate turned away: ErrQueueFull
// sheds with 429 (counted in requests_shed_total), ErrDraining with 503.
func (sh *Shell) Refuse(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrQueueFull) {
		sh.reg.Counter("requests_shed_total").Inc()
		sh.Shed(w, http.StatusTooManyRequests, sh.name+" queue full; retry after backoff")
		return
	}
	sh.Shed(w, http.StatusServiceUnavailable, sh.name+" is draining; retry elsewhere")
}

// BodyError answers a request body that could not be read or parsed:
// 413 when it ran past its http.MaxBytesReader cap, 400 otherwise.
func (sh *Shell) BodyError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		sh.Error(w, http.StatusRequestEntityTooLarge,
			"request body exceeds "+strconv.FormatInt(tooLarge.Limit, 10)+" bytes")
		return
	}
	sh.Error(w, http.StatusBadRequest, err.Error())
}

// retryAfter renders the Retry-After hint for the gate's current load
// in whole seconds, at least 1.
func (sh *Shell) retryAfter() string {
	d := retryAfterHint(sh.adm.Depth(), sh.adm.workers())
	return strconv.FormatInt(max(int64(d/time.Second), 1), 10)
}

// RetryAfterFloor is the Retry-After hint of a refusal with nothing
// queued, and the wait a router assumes when a backend's 429/503
// carries no usable hint.
const RetryAfterFloor = time.Second

// retryAfterHint scales RetryAfterFloor by queue pressure: with depth
// calls waiting ahead of a new arrival and workers draining them,
// ceil(depth/workers) "queue generations" must clear before a retry
// can be admitted, and each generation needs at least one service
// time — for which the floor stands in as a conservative unit. An
// idle queue returns the floor unchanged; the hint is capped at one
// minute so a deeply backed-up daemon still invites retries within the
// window a client plausibly waits.
func retryAfterHint(depth, workers int) time.Duration {
	if workers < 1 {
		workers = 1
	}
	generations := (depth + workers - 1) / workers
	return min(RetryAfterFloor*time.Duration(1+generations), time.Minute)
}

// writeJSON sends v as a JSON body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		// Marshal of our own response types cannot fail; guard anyway.
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

// statusWriter records the status code actually written so the
// deferred request accounting sees it.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}
