// Package portfolio implements a deadline-aware PBQP solver portfolio:
// a configurable fallback chain of solvers (e.g. Deep-RL → liberty
// enumeration → Scholz–Eckstein) run under one total time budget with
// graceful degradation. Each stage gets a slice of the remaining
// budget, runs through its SolveCtx so it can be truncated
// cooperatively, and is isolated from the others — a panicking stage is
// recovered (with the offending graph serialized for reproduction) and
// the chain simply moves on. The portfolio keeps the cheapest feasible
// selection seen across all stages, so the caller always gets the best
// answer the budget allowed, never a crash and never an unbounded wait.
package portfolio

import (
	"context"
	"fmt"
	"log"
	"runtime/debug"
	"strings"
	"time"

	"pbqprl/internal/cost"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/solve"
)

// Outcome reports how one stage of a portfolio run went. It marshals
// to JSON — the duration in nanoseconds, like time.Duration itself —
// so the CLI's -stats-json and the serving layer emit the same shape.
type Outcome struct {
	// Name is the stage solver's name.
	Name string `json:"name"`
	// Result is the stage's result, its Stats included; zero-valued
	// when the stage was skipped or panicked.
	Result solve.Result `json:"result"`
	// Duration is the stage's wall-clock time (JSON: nanoseconds).
	Duration time.Duration `json:"duration_ns"`
	// Panicked reports that the stage solver panicked and was
	// recovered; PanicValue carries the panic message.
	Panicked   bool   `json:"panicked,omitempty"`
	PanicValue string `json:"panic_value,omitempty"`
	// Skipped reports that the stage never ran because the budget (or
	// the caller's context) was already exhausted.
	Skipped bool `json:"skipped,omitempty"`
}

// Stats reports a full portfolio run.
type Stats struct {
	// Stages has one entry per configured stage, in chain order.
	Stages []Outcome `json:"stages"`
	// Winner is the index of the stage that produced the returned
	// selection, or -1 when no stage found a feasible one.
	Winner int `json:"winner"`
}

// Solver runs a fallback chain of PBQP solvers under a total time
// budget. It implements solve.Solver.
type Solver struct {
	// Stages is the fallback chain, tried in order. Under a deadline
	// each stage may spend an even share of the time remaining at its
	// start — the remainder divided by the stages left, itself included —
	// and is cancelled cooperatively when that runs out, so the last
	// stage gets all the time the earlier ones did not use.
	Stages []solve.Solver
	// Budget is the total wall-clock budget for the whole chain. Zero
	// means no budget of its own — only the caller's context limits
	// the run.
	Budget time.Duration
	// StopOnFeasible stops the chain as soon as a stage returns a
	// feasible, untruncated result instead of running later stages in
	// search of a cheaper one. This is the right setting for the ATE
	// zero/infinity regime, where any feasible selection is optimal.
	StopOnFeasible bool
	// Logf receives panic-recovery reports, including the offending
	// graph's textual serialization for reproduction. Nil uses the
	// standard logger.
	Logf func(format string, args ...any)
}

// New returns a portfolio over the given chain with an even budget
// split and StopOnFeasible semantics.
func New(budget time.Duration, chain ...solve.Solver) *Solver {
	return &Solver{Stages: chain, Budget: budget, StopOnFeasible: true}
}

// Name implements solve.Solver.
func (s *Solver) Name() string {
	names := make([]string, len(s.Stages))
	for i, st := range s.Stages {
		names[i] = st.Name()
	}
	return "portfolio(" + strings.Join(names, "→") + ")"
}

// Solve implements solve.Solver.
func (s *Solver) Solve(g *pbqp.Graph) solve.Result {
	return s.SolveCtx(context.Background(), g)
}

// SolveCtx implements solve.Solver.
func (s *Solver) SolveCtx(ctx context.Context, g *pbqp.Graph) solve.Result {
	res, _ := s.SolveStats(ctx, g)
	return res
}

// SolveStats runs the chain and additionally reports per-stage
// outcomes. The returned result is the cheapest feasible one any stage
// produced; Truncated is set when some stage was cut short (or skipped)
// by the deadline and no later stage finished untruncated — i.e. when
// more time could have produced a different answer.
func (s *Solver) SolveStats(ctx context.Context, g *pbqp.Graph) (solve.Result, Stats) {
	logf := s.Logf
	if logf == nil {
		logf = log.Printf
	}
	var deadline time.Time
	hasDeadline := false
	if d, ok := ctx.Deadline(); ok {
		deadline, hasDeadline = d, true
	}
	if s.Budget > 0 {
		// Wall-clock budget split is the portfolio's contract; solver outputs stay deterministic, only truncation timing varies.
		if b := time.Now().Add(s.Budget); !hasDeadline || b.Before(deadline) {
			deadline, hasDeadline = b, true
		}
	}

	best := solve.Result{Cost: cost.Inf}
	stats := Stats{Stages: make([]Outcome, len(s.Stages)), Winner: -1}
	deadlineHit := false
	for i, stage := range s.Stages {
		out := &stats.Stages[i]
		out.Name = stage.Name()
		remaining := time.Duration(0)
		if hasDeadline {
			remaining = time.Until(deadline)
		}
		if ctx.Err() != nil || (hasDeadline && remaining <= 0) {
			out.Skipped = true
			deadlineHit = true
			continue
		}
		stageCtx := ctx
		var cancel context.CancelFunc
		if hasDeadline {
			stageCtx, cancel = context.WithTimeout(ctx, remaining/time.Duration(len(s.Stages)-i))
		}
		// Per-stage wall time is reporting only; it never feeds back into solver decisions.
		start := time.Now()
		res, panicked, panicVal := runStage(stageCtx, stage, g, logf)
		if cancel != nil {
			cancel()
		}
		out.Duration = time.Since(start)
		out.Panicked = panicked
		out.PanicValue = panicVal
		if panicked {
			continue
		}
		out.Result = res
		best.States += res.States
		if res.Truncated {
			deadlineHit = true
		}
		if res.Feasible && (!best.Feasible || res.Cost.Less(best.Cost)) {
			best.Selection = res.Selection
			best.Cost = res.Cost
			best.Feasible = true
			stats.Winner = i
		}
		if s.StopOnFeasible && res.Feasible && !res.Truncated {
			// A complete feasible answer: mark the stages that will not
			// run and report the result as untruncated — more time
			// would not have changed it under these semantics.
			for j := i + 1; j < len(s.Stages); j++ {
				stats.Stages[j].Name = s.Stages[j].Name()
				stats.Stages[j].Skipped = true
			}
			deadlineHit = false
			break
		}
	}
	best.Truncated = deadlineHit
	return best, stats
}

// maxGraphLogBytes caps the repro serialization in panic logs; graphs
// past this size are elided rather than flooding the log.
const maxGraphLogBytes = 64 << 10

// runStage runs one solver under its stage context, converting a panic
// into a recovered failure. The graph is cloned first so a stage that
// dies mid-mutation (or violates the no-mutate contract) cannot poison
// later stages, and the original serialization is logged for repro.
func runStage(ctx context.Context, sv solve.Solver, g *pbqp.Graph, logf func(string, ...any)) (res solve.Result, panicked bool, panicVal string) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			panicVal = fmt.Sprint(r)
			res = solve.Result{Cost: cost.Inf}
			logf("portfolio: stage %q panicked: %v\ngraph for repro:\n%s\n%s",
				sv.Name(), r, pbqp.Elide(g.String(), maxGraphLogBytes), debug.Stack())
		}
	}()
	return sv.SolveCtx(ctx, g.Clone()), false, ""
}
