package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"pbqprl/internal/failpoint"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/solve"
	"pbqprl/internal/solve/portfolio"
)

// Request knobs. Each is a query parameter with a header alias (the
// header wins when both are set) so callers can keep graph bodies and
// routing concerns separate:
//
//	chain     / X-PBQP-Chain:     comma-separated solver chain, e.g.
//	                              "liberty,scholz"
//	deadline  / X-PBQP-Deadline:  Go duration, e.g. "250ms"; capped by
//	                              the server's MaxDeadline
//	cost-mode / X-PBQP-Cost-Mode: "zeroinf" (default) stops at the
//	                              first complete feasible answer — in
//	                              the ATE zero/infinity regime any
//	                              feasible selection is optimal;
//	                              "spill" runs every stage and keeps
//	                              the cheapest answer, the right
//	                              setting for weighted spill costs
//
// ParseKnobs reads them, for this server and for pbqp-router, which
// keys its cache on the same parse.
const (
	HeaderChain    = "X-PBQP-Chain"
	HeaderDeadline = "X-PBQP-Deadline"
	HeaderCostMode = "X-PBQP-Cost-Mode"
)

// Knobs are one solve request's parsed knobs.
type Knobs struct {
	// Chain is the selected solver chain, blanks trimmed and empty
	// names dropped; nil when the request leaves the chain to the
	// serving default.
	Chain []string
	// Deadline is the solve budget: the requested one or, when none
	// was, the default, capped at the maximum.
	Deadline time.Duration
	// CostMode is "zeroinf" or "spill".
	CostMode string
}

// ParseKnobs reads r's chain, deadline and cost-mode knobs. def is the
// deadline when r sets none, and maxDeadline caps the deadline.
func ParseKnobs(r *http.Request, def, maxDeadline time.Duration) (Knobs, error) {
	k := Knobs{Deadline: def, CostMode: "zeroinf"}
	if spec := knob(r, "chain", HeaderChain); spec != "" {
		if k.Chain = portfolio.SplitChain(spec); k.Chain == nil {
			return Knobs{}, errors.New("chain selects no solvers")
		}
	}
	if spec := knob(r, "deadline", HeaderDeadline); spec != "" {
		d, err := time.ParseDuration(spec)
		if err != nil || d <= 0 {
			return Knobs{}, errors.New("deadline wants a positive Go duration like 250ms")
		}
		k.Deadline = d
	}
	if k.Deadline > maxDeadline {
		k.Deadline = maxDeadline
	}
	switch mode := knob(r, "cost-mode", HeaderCostMode); mode {
	case "", "zeroinf":
	case "spill":
		k.CostMode = mode
	default:
		return Knobs{}, errors.New(`cost-mode wants "zeroinf" or "spill"`)
	}
	return k, nil
}

// knob reads one request knob: the header alias wins over the query
// parameter.
func knob(r *http.Request, query, header string) string {
	if v := r.Header.Get(header); v != "" {
		return v
	}
	return r.URL.Query().Get(query)
}

// SolveResponse is the JSON body of a successful (or truncated or
// infeasible) solve. Result is the portfolio's best answer; Stats
// reports every stage — the same portfolio.Stats that pbqp-solve
// -stats-json prints.
type SolveResponse struct {
	// Solver names the portfolio that ran, e.g.
	// "portfolio(liberty→scholz)".
	Solver string `json:"solver"`
	// Result is the best answer across stages.
	Result solve.Result `json:"result"`
	// Stats has one outcome per stage, in chain order.
	Stats portfolio.Stats `json:"stats"`
	// QueueNanos is time spent waiting for a worker; SolveNanos is
	// time on the worker. Both count against the request deadline.
	QueueNanos int64 `json:"queue_ns"`
	SolveNanos int64 `json:"solve_ns"`
}

// ErrorResponse is the JSON body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// now is the server's only wall-clock read point, for latency
// measurement and deadline arithmetic.
func now() time.Time {
	//pbqpvet:ignore determinism serving-path latency measurement and deadlines are operational, never solver inputs
	return time.Now()
}

// handleSolve is POST /v1/solve.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	start := now()
	sw := &statusWriter{ResponseWriter: w}
	defer func() {
		st := sw.status
		if st == 0 {
			st = http.StatusOK
		}
		s.observeRequest(st, now().Sub(start))
	}()

	if r.Method != http.MethodPost {
		sw.Header().Set("Allow", http.MethodPost)
		s.writeError(sw, http.StatusMethodNotAllowed, "POST a PBQP graph in the textual format")
		return
	}
	if s.adm.IsDraining() {
		sw.Header().Set("Retry-After", retryAfterSeconds(s.retryAfter()))
		s.writeError(sw, http.StatusServiceUnavailable, "server is draining; retry elsewhere")
		return
	}

	// Parse the knobs before the body: a bad knob should not cost a
	// graph parse.
	knobs, err := ParseKnobs(r, s.cfg.DefaultDeadline, s.cfg.MaxDeadline)
	if err != nil {
		s.writeError(sw, http.StatusBadRequest, err.Error())
		return
	}
	names := knobs.Chain
	if names == nil {
		names = s.cfg.DefaultChain
	}
	chain, err := s.stages.Chain(names)
	if err != nil {
		s.writeError(sw, http.StatusBadRequest, err.Error())
		return
	}

	// Harden the parse path: body size cap first, then the parser's
	// own dimension caps.
	body := http.MaxBytesReader(sw, r.Body, s.cfg.MaxRequestBytes)
	g, err := pbqp.ReadWithLimits(body, s.cfg.ReadLimits)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.writeError(sw, http.StatusRequestEntityTooLarge,
				"request body exceeds "+strconv.FormatInt(tooLarge.Limit, 10)+" bytes")
			return
		}
		s.writeError(sw, http.StatusBadRequest, err.Error())
		return
	}

	// The deadline starts at admission and covers queue wait: a
	// request that queues for its whole budget gets a truncated
	// answer, not a free extension. Deriving from the request context
	// also cancels the solve when the client disconnects.
	ctx, cancel := context.WithTimeout(r.Context(), knobs.Deadline)
	defer cancel()

	p := &portfolio.Solver{Stages: chain, StopOnFeasible: knobs.CostMode == "zeroinf", Logf: s.cfg.Logf}

	var (
		res        solve.Result
		stats      portfolio.Stats
		solveStart time.Time
	)
	j := NewJob(func() {
		solveStart = now()
		s.reg.Gauge("requests_inflight").Add(1)
		defer s.reg.Gauge("requests_inflight").Add(-1)
		// Test fault injection: arming server/solve with a panic or
		// delay action drives the worker-panic and slow-drain paths
		// end-to-end without a bespoke MakeSolver stub.
		_ = failpoint.Hit("server/solve")
		res, stats = p.SolveStats(ctx, g)
	})
	queued := now()
	if err := s.adm.Submit(j); err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			sw.Header().Set("Retry-After", retryAfterSeconds(s.retryAfter()))
			s.reg.Counter("requests_shed_total").Inc()
			s.writeError(sw, http.StatusTooManyRequests, "queue full; retry after backoff")
		default:
			sw.Header().Set("Retry-After", retryAfterSeconds(s.retryAfter()))
			s.writeError(sw, http.StatusServiceUnavailable, "server is draining; retry elsewhere")
		}
		return
	}
	<-j.Done()

	if panicked, val, stack := j.Panicked(); panicked {
		// Mirror the portfolio's repro logging for panics that escape
		// it (the portfolio already isolates per-stage panics; this
		// catches everything else on the worker). The serialization is
		// capped: a max-dimension hostile graph must not be able to
		// blow up the log pipeline.
		s.reg.Counter("solve_panics_total").Inc()
		s.cfg.Logf("server: solve panicked: %s\ngraph for repro:\n%s\n%s",
			val, pbqp.Elide(g.String(), maxGraphLogBytes), stack)
		s.writeError(sw, http.StatusInternalServerError, "solver panicked; the graph was logged for reproduction")
		return
	}

	finish := now()
	s.observeStages(stats)
	resp := SolveResponse{
		Solver:     p.Name(),
		Result:     res,
		Stats:      stats,
		QueueNanos: solveStart.Sub(queued).Nanoseconds(),
		SolveNanos: finish.Sub(solveStart).Nanoseconds(),
	}
	writeJSON(sw, statusFor(res), resp)
}

// statusFor maps a solve result to its HTTP status, mirroring
// pbqp-solve's exit codes: feasible → 200 (exit 0, or 3 when
// truncated — the JSON carries the flag), infeasible after a complete
// search → 422 (exit 2), deadline-truncated with nothing to show →
// 504 (exit 3).
func statusFor(res solve.Result) int {
	switch {
	case res.Feasible:
		return http.StatusOK
	case res.Truncated:
		return http.StatusGatewayTimeout
	default:
		return http.StatusUnprocessableEntity
	}
}

// maxGraphLogBytes caps graph serializations written to the log for
// offline reproduction; past it the tail is elided with a byte count.
const maxGraphLogBytes = 64 << 10

// retryAfter derives the Retry-After hint for 429/503 answers from the
// server's current load via RetryAfterHint; cfg.RetryAfter is the
// floor.
func (s *Server) retryAfter() time.Duration {
	return RetryAfterHint(s.cfg.RetryAfter, s.adm.Depth(), s.cfg.Workers)
}

// RetryAfterHint scales a configured floor hint by queue pressure:
// with depth jobs queued ahead of a new arrival and workers draining
// them, ceil(depth/workers) "queue generations" must clear before a
// retry can be admitted, and each generation needs at least one
// service time — for which the floor stands in as a conservative
// unit. An idle queue returns the floor unchanged; the hint is capped
// at one minute so a deeply backed-up server still invites retries
// within the window a client plausibly waits. Exported for the router,
// whose own admission queue sheds load the same way.
func RetryAfterHint(floor time.Duration, depth, workers int) time.Duration {
	if floor <= 0 {
		floor = time.Second
	}
	if workers < 1 {
		workers = 1
	}
	generations := (depth + workers - 1) / workers
	hint := floor * time.Duration(1+generations)
	if max := time.Minute; hint > max {
		hint = max
	}
	return hint
}

// retryAfterSeconds renders a Retry-After header value (whole seconds,
// minimum 1).
func retryAfterSeconds(d time.Duration) string {
	secs := int64(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// observeRequest records the per-status request metrics.
func (s *Server) observeRequest(status int, d time.Duration) {
	code := strconv.Itoa(status)
	s.reg.Counter("http_requests_total." + code).Inc()
	s.reg.Histogram("http_request_seconds." + code).Observe(d)
}

// observeStages records per-stage solver latency and outcome counts.
func (s *Server) observeStages(stats portfolio.Stats) {
	for _, out := range stats.Stages {
		if out.Skipped {
			s.reg.Counter("solve_stage_skipped_total." + out.Name).Inc()
			continue
		}
		s.reg.Histogram("solve_stage_seconds." + out.Name).Observe(out.Duration)
		switch {
		case out.Panicked:
			s.reg.Counter("solve_stage_panics_total." + out.Name).Inc()
		case out.Result.Feasible:
			s.reg.Counter("solve_stage_feasible_total." + out.Name).Inc()
		default:
			s.reg.Counter("solve_stage_infeasible_total." + out.Name).Inc()
		}
	}
}

// writeError sends a JSON error body with the given status.
func (s *Server) writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg})
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
// deferred metrics observation sees it.
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
