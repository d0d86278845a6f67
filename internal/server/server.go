// Package server is the PBQP allocation service: a stdlib-only
// net/http layer that accepts PBQP graphs in the textual format,
// solves each request through a deadline-aware solver portfolio at
// bounded concurrency, and reports per-stage statistics both in the
// response and through the built-in metrics registry.
//
// The production spine, in request order:
//
//   - input hardening: http.MaxBytesReader plus tightened
//     pbqp.ReadLimits on the parse path — hostile bodies are rejected
//     before any large allocation;
//   - admission control: a gate that runs at most Workers solves at
//     once, each on its request's goroutine, with at most QueueDepth
//     more waiting; past that the server sheds load with 429 +
//     Retry-After instead of queueing unboundedly, and while draining
//     it answers 503;
//   - deadline propagation: each request's solve runs under the
//     client's deadline capped by the server maximum, derived from the
//     request context, so client disconnects cancel waiting solves too;
//   - panic isolation: a panicking solve takes down its request (500,
//     with the offending graph serialized to the log for offline
//     reproduction, like the portfolio does per stage), never the
//     process;
//   - graceful drain: Drain stops admission (readyz goes 503, new
//     solves get 503) and finishes every accepted request — the
//     SIGTERM path of cmd/pbqp-serve.
//
// Endpoints (the Shell, which pbqp-router shares): POST /v1/solve, GET
// /metrics (expvar-style JSON), GET /healthz, GET /readyz, and the
// /debug/pprof/* profiles.
package server

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"pbqprl/internal/game"
	"pbqprl/internal/mcts"
	"pbqprl/internal/metrics"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/solve"
	"pbqprl/internal/solve/portfolio"
)

// Config tunes a Server. The zero value is serviceable: every field
// falls back to the documented default.
type Config struct {
	// Workers is the number of solves in flight at once. Default:
	// GOMAXPROCS.
	Workers int
	// QueueDepth bounds the solves waiting for one of the Workers
	// slots; requests beyond Workers+QueueDepth in flight are shed
	// with 429. Default: 128.
	QueueDepth int
	// MaxRequestBytes caps the request body. Default: 4 MiB.
	MaxRequestBytes int64
	// DefaultDeadline is the per-request solve budget when the client
	// does not ask for one. Default: 2s.
	DefaultDeadline time.Duration
	// MaxDeadline caps the client-requested deadline. Default: 30s.
	MaxDeadline time.Duration
	// ReadLimits tightens the PBQP parser caps for request bodies.
	// Zero fields use the pbqp package defaults.
	ReadLimits pbqp.ReadLimits
	// DefaultChain is the solver fallback chain used when the request
	// does not select one, in portfolio.Builder's stage names.
	// Default: portfolio.DefaultChain, the same chain as pbqp-solve
	// -solver rl-bt,liberty,scholz. A "decomp:" stage solves its components one at a
	// time; the server already runs Workers requests in parallel.
	DefaultChain []string
	// MaxStates is the per-stage search budget. Default: 50,000,000.
	MaxStates int64
	// K is the MCTS simulations-per-action count for rl stages.
	// Default: 50.
	K int
	// Order is the coloring order for rl stages; the zero value is
	// game.OrderFixed. cmd/pbqp-serve defaults its flag to the
	// paper's best, decreasing liberty.
	Order game.Order
	// Evaluator supplies the MCTS evaluator for rl stages. The factory
	// is called once per request whose chain has an rl stage, on that
	// request's handler goroutine (and once by New, validating the
	// default chain), so calls run concurrently and each must return
	// an evaluator no other goroutine uses: base.Clone() of a loaded
	// network. Evaluators carry the inference engine's scratch and
	// memo tables, which start cold in every clone. Nil uses the
	// uniform (untrained) prior.
	Evaluator func() mcts.Evaluator
	// MakeSolver overrides solver construction by name (see
	// portfolio.Builder.Make); tests inject blocking or panicking
	// solvers through it. Nil uses the built-in names.
	MakeSolver func(name string) (solve.Solver, error)
	// Logf receives operational log lines (panic reports with graph
	// serializations, drain progress). Nil uses a no-op; cmd/pbqp-serve
	// passes log.Printf.
	Logf func(format string, args ...any)
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 128
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
	if len(c.DefaultChain) == 0 {
		c.DefaultChain = portfolio.SplitChain(portfolio.DefaultChain)
	}
	if c.MaxStates <= 0 {
		c.MaxStates = 50_000_000
	}
	if c.K <= 0 {
		c.K = 50
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the allocation service. Create with New, expose via
// Handler, stop via Drain.
type Server struct {
	cfg    Config
	stages portfolio.Builder
	adm    *Admission
	shell  *Shell
	reg    *metrics.Registry
}

// New builds a Server (not yet listening — the caller owns the
// http.Server/listener so tests can use httptest).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	stages := portfolio.Builder{
		MaxStates: cfg.MaxStates,
		K:         cfg.K,
		Order:     cfg.Order,
		Evaluator: cfg.Evaluator,
		Make:      cfg.MakeSolver,
	}
	// Validate the default chain eagerly: a typo should fail startup,
	// not every request.
	if _, err := stages.Chain(cfg.DefaultChain); err != nil {
		return nil, fmt.Errorf("server: default chain: %w", err)
	}
	s := &Server{cfg: cfg, stages: stages, adm: NewAdmission(cfg.Workers, cfg.QueueDepth)}
	s.shell = NewShell("server", s.adm, s.handleSolve, nil)
	s.reg = s.shell.Registry()
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.shell.Handler() }

// Registry returns the server's metrics registry.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Drain gracefully shuts the solve path down: admission flips to
// draining (new solves and readyz answer 503) and every accepted
// request runs to completion. It returns nil on a complete drain and
// the context's error if the deadline cut it short.
// The caller still owns its http.Server and should Shutdown it after
// Drain returns so late health probes get answers during the drain.
func (s *Server) Drain(ctx context.Context) error {
	s.cfg.Logf("server: draining (in flight: %d queued: %d)", s.adm.InFlight(), s.adm.Depth())
	err := s.adm.Drain(ctx)
	if err != nil {
		s.cfg.Logf("server: drain incomplete: %v", err)
		return err
	}
	s.cfg.Logf("server: drain complete")
	return nil
}
