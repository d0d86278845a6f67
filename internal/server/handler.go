package server

import (
	"context"
	"errors"
	"net/http"
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
// -stats-json prints, each stage's own counters (rl-bt's backtracks, a
// decomp: stage's blocks) in stats.stages[i].result.stats.
type SolveResponse struct {
	// Solver names the portfolio that ran, e.g.
	// "portfolio(liberty→scholz)".
	Solver string `json:"solver"`
	// Result is the best answer across stages.
	Result solve.Result `json:"result"`
	// Stats has one outcome per stage, in chain order.
	Stats portfolio.Stats `json:"stats"`
	// QueueNanos is time spent waiting for an admission slot;
	// SolveNanos is time in the solve. Both count against the request
	// deadline.
	QueueNanos int64 `json:"queue_ns"`
	SolveNanos int64 `json:"solve_ns"`
}

// now is the server's only wall-clock read point, for latency
// measurement and deadline arithmetic.
func now() time.Time {
	// Serving-path latency measurement and deadlines are operational, never solver inputs.
	return time.Now()
}

// handleSolve answers POST /v1/solve behind the shell's method and
// drain checks.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	// Parse the knobs before the body: a bad knob should not cost a
	// graph parse.
	knobs, err := ParseKnobs(r, s.cfg.DefaultDeadline, s.cfg.MaxDeadline)
	if err != nil {
		s.shell.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	names := knobs.Chain
	if names == nil {
		names = s.cfg.DefaultChain
	}
	chain, err := s.stages.Chain(names)
	if err != nil {
		s.shell.Error(w, http.StatusBadRequest, err.Error())
		return
	}

	// Harden the parse path: body size cap first, then the parser's
	// own dimension caps.
	g, err := pbqp.ReadWithLimits(http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes), s.cfg.ReadLimits)
	if err != nil {
		s.shell.BodyError(w, err)
		return
	}

	// The deadline starts at admission and covers the wait for a slot:
	// a request that waits for its whole budget gets a truncated
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
	queued := now()
	err = s.adm.Run(func() {
		solveStart = now()
		// Test fault injection: arming server/solve with a panic or
		// delay action drives the panic and slow-drain paths
		// end-to-end without a bespoke MakeSolver stub.
		_ = failpoint.Hit("server/solve")
		res, stats = p.SolveStats(ctx, g)
	})
	var panicked *PanicError
	switch {
	case errors.As(err, &panicked):
		// Mirror the portfolio's repro logging for panics that escape
		// it (the portfolio already isolates per-stage panics; this
		// catches everything else in the solve). The serialization is
		// capped: a max-dimension hostile graph must not be able to
		// blow up the log pipeline.
		s.reg.Counter("solve_panics_total").Inc()
		s.cfg.Logf("server: solve panicked: %v\ngraph for repro:\n%s\n%s",
			panicked.Value, pbqp.Elide(g.String(), maxGraphLogBytes), panicked.Stack)
		s.shell.Error(w, http.StatusInternalServerError, "solver panicked; the graph was logged for reproduction")
		return
	case err != nil:
		s.shell.Refuse(w, err)
		return
	}

	finish := now()
	s.observeStages(stats)
	writeJSON(w, statusFor(res), SolveResponse{
		Solver:     p.Name(),
		Result:     res,
		Stats:      stats,
		QueueNanos: solveStart.Sub(queued).Nanoseconds(),
		SolveNanos: finish.Sub(solveStart).Nanoseconds(),
	})
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
