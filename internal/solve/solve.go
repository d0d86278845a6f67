// Package solve defines the common interface of PBQP solvers and the
// statistics they report. Concrete solvers live in the subpackages
// brute (exact branch and bound on the game), scholz (the original
// Scholz–Eckstein reduction solver) and liberty (the liberty-based
// enumeration of Kim et al., TACO 2020); the Deep-RL solver lives in
// internal/rl and the deadline-aware fallback chain in portfolio.
package solve

import (
	"context"

	"pbqprl/internal/cost"
	"pbqprl/internal/pbqp"
)

// Result is the outcome of solving one PBQP problem. It marshals to
// JSON (infinite costs as the string "inf") so the CLI and the serving
// layer report identically.
type Result struct {
	// Selection is the color chosen for each vertex. It is only
	// meaningful when Feasible is true.
	Selection pbqp.Selection `json:"selection,omitempty"`
	// Cost is the total cost of Selection (Equation 1), or cost.Inf
	// when no finite-cost assignment was found.
	Cost cost.Cost `json:"cost"`
	// Feasible reports whether a finite-cost assignment was found.
	Feasible bool `json:"feasible"`
	// Truncated reports that the solve was cut short by context
	// cancellation or deadline expiry before the solver finished its
	// search. A truncated result carries the best feasible selection
	// found so far when one exists (Feasible is then still true); it
	// is an anytime answer, not a completed one. Budget truncation via
	// solver-specific caps (MaxStates, MaxNodes) does not set it.
	Truncated bool `json:"truncated"`
	// States counts the search states the solver explored: one per
	// attempted (vertex, color) assignment for enumeration solvers,
	// one per reduction step for reduction solvers. It is the paper's
	// search-space metric.
	States int64 `json:"states"`
	// Stats holds what else the solver counted, by name: counts, and
	// wall seconds of its steps under keys ending in "_s". A solver
	// with nothing more to report leaves it nil.
	Stats map[string]float64 `json:"stats,omitempty"`
}

// Solver solves PBQP problems, and honors context cancellation while
// it does: SolveCtx periodically polls ctx and, once it is done, stops
// searching and returns its best feasible selection found so far with
// Result.Truncated set (Feasible=false when none was found yet).
// Implementations never hang past a few polling intervals and never
// panic on cancellation.
type Solver interface {
	// Name identifies the solver in experiment reports.
	Name() string
	// Solve finds a (locally or globally) minimal coloring of g.
	// Implementations must not retain or mutate g.
	Solve(g *pbqp.Graph) Result
	// SolveCtx is Solve under a context. A canceled ctx truncates the
	// search; it never produces an error or a panic.
	SolveCtx(ctx context.Context, g *pbqp.Graph) Result
}

// CheckInterval is how many search states solvers explore between ctx
// polls. Polling a context is cheap but not free; at a few hundred
// states per poll the overhead is unmeasurable while a 50 ms deadline
// still lands within a small fraction of itself.
const CheckInterval = 256
