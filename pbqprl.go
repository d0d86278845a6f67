// Package pbqprl is a from-scratch Go implementation of "Solving
// PBQP-Based Register Allocation using Deep Reinforcement Learning"
// (Kim, Park, Moon — CGO 2022): PBQP problem graphs, the classical
// solvers (exact, Scholz–Eckstein reduction, liberty-based
// enumeration), an AlphaZero-style Deep-RL solver (GCN embedding + MCTS
// + self-play training) with backtracking and liberty coloring orders,
// plus the two evaluation substrates — a synthetic ATE (automated test
// equipment) machine model and a mini compiler backend with
// FAST/BASIC/GREEDY/PBQP register allocators.
//
// This file is the public facade: it re-exports the library's primary
// types and constructors so that downstream users need a single import.
//
//	g := pbqprl.NewGraph(3, 2)            // build a PBQP problem
//	res := pbqprl.Scholz().Solve(g)       // solve by reduction
//	s := pbqprl.NewDeepRL(net, cfg)       // or with MCTS + DNN
//
// See examples/ for runnable programs and DESIGN.md for the system map.
package pbqprl

import (
	"context"
	"io"
	"math/rand"
	"time"

	"pbqprl/internal/cost"
	"pbqprl/internal/decomp"
	"pbqprl/internal/game"
	"pbqprl/internal/mcts"
	"pbqprl/internal/net"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/randgraph"
	"pbqprl/internal/reduce"
	"pbqprl/internal/rl"
	"pbqprl/internal/selfplay"
	"pbqprl/internal/solve"
	"pbqprl/internal/solve/anneal"
	"pbqprl/internal/solve/brute"
	"pbqprl/internal/solve/liberty"
	"pbqprl/internal/solve/portfolio"
	"pbqprl/internal/solve/scholz"
)

// Core problem types.
type (
	// Cost is a PBQP cost entry: a finite real or +∞ (Inf).
	Cost = cost.Cost
	// Vector is a per-vertex cost vector.
	Vector = cost.Vector
	// Matrix is a per-edge cost matrix.
	Matrix = cost.Matrix
	// Graph is a PBQP problem graph.
	Graph = pbqp.Graph
	// Selection assigns one color per vertex.
	Selection = pbqp.Selection
)

// Inf is the infinite (forbidden) cost.
const Inf = cost.Inf

// NewGraph returns an empty PBQP graph with n vertices and m colors.
func NewGraph(n, m int) *Graph { return pbqp.New(n, m) }

// ReadGraph parses the textual PBQP format.
func ReadGraph(r io.Reader) (*Graph, error) { return pbqp.Read(r) }

// WriteGraph serializes a graph in the textual PBQP format.
func WriteGraph(w io.Writer, g *Graph) error { return pbqp.Write(w, g) }

// Solver is the common solver interface; Result carries the selection,
// cost, feasibility, the Truncated (deadline-cut) flag, and the
// explored-state count. Every solver also runs under a context:
// s.SolveCtx(ctx, g) stops at cancellation and returns its best
// feasible selection found so far with Result.Truncated set.
type (
	Solver = solve.Solver
	Result = solve.Result
)

// SolveWithTimeout solves g with s under a wall-clock deadline; on
// expiry the result is the solver's best-so-far, marked Truncated.
func SolveWithTimeout(s Solver, g *Graph, timeout time.Duration) Result {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return s.SolveCtx(ctx, g)
}

// Solver portfolio: a fallback chain under one time budget with panic
// isolation per stage (see internal/solve/portfolio).
type (
	// PortfolioSolver runs a fallback chain of solvers, splitting a
	// total time budget across stages, recovering stage panics, and
	// keeping the cheapest feasible result.
	PortfolioSolver = portfolio.Solver
	// PortfolioOutcome reports how one stage went.
	PortfolioOutcome = portfolio.Outcome
	// PortfolioStats reports a full portfolio run.
	PortfolioStats = portfolio.Stats
)

// Portfolio builds a deadline-aware fallback chain (e.g. Deep-RL →
// Liberty → Scholz) with an even budget split and stop-on-feasible
// semantics. budget 0 means no time limit of its own — pass a context
// via SolveCtx to bound it externally.
func Portfolio(budget time.Duration, chain ...Solver) *PortfolioSolver {
	return portfolio.New(budget, chain...)
}

// Brute returns the exact branch-and-bound solver (exponential; use as
// an oracle or on small problems). maxStates caps the search, 0 = none.
func Brute(maxStates int64) Solver { return brute.Solver{MaxStates: maxStates} }

// Scholz returns the original Scholz–Eckstein reduction solver.
func Scholz() Solver { return scholz.Solver{} }

// Liberty returns the liberty-based enumeration solver of Kim et al.
// (TACO 2020). maxStates caps the enumeration, 0 = none.
func Liberty(maxStates int64) Solver { return liberty.Solver{MaxStates: maxStates} }

// Anneal returns the simulated-annealing local-search solver. steps = 0
// picks a size-proportional default.
func Anneal(steps int, seed int64) Solver { return anneal.Solver{Steps: steps, Seed: seed} }

// Big-graph decomposition pipeline (internal/decomp): exact R0/R1/R2
// reduction, block-cut splitting of the residual, per-block solving
// with a wrapped inner solver, and recombination. What it did to an
// instance comes back in Result.Stats.
//
// DecompSolver wraps any Solver into a decomposing big-graph solver;
// set Workers > 1 for parallel component solving with a
// concurrency-safe inner solver.
type DecompSolver = decomp.Solver

// Decompose wraps inner in the big-graph decomposition pipeline with
// sequential component solving. Exact for an exact inner solver.
func Decompose(inner Solver) *DecompSolver { return decomp.Wrap(inner) }

// Reduction is the result of the exact R0/R1/R2 preprocessing pass.
type Reduction = reduce.Reduction

// Reduce exactly reduces g (without mutating it); solve the returned
// remainder with any solver and call Expand to recover a full
// selection.
func Reduce(g *Graph) *Reduction { return reduce.Apply(g) }

// Deep-RL solver types.
type (
	// Net is the paper's combined GCN + ResNet policy/value network.
	Net = net.PBQPNet
	// NetConfig sizes a Net.
	NetConfig = net.Config
	// DeepRLConfig tunes an inference run (k, order, backtracking...).
	DeepRLConfig = rl.Config
	// DeepRL is the MCTS+DNN PBQP solver.
	DeepRL = rl.Solver
	// Order is a coloring order.
	Order = game.Order
	// Evaluator supplies MCTS priors/values; *Net implements it, and
	// UniformEvaluator provides the untrained baseline.
	Evaluator = mcts.Evaluator
	// UniformEvaluator is an Evaluator with uniform legal priors.
	UniformEvaluator = mcts.Uniform
)

// Coloring orders (Section IV-E).
const (
	OrderFixed      = game.OrderFixed
	OrderRandom     = game.OrderRandom
	OrderIncLiberty = game.OrderIncLiberty
	OrderDecLiberty = game.OrderDecLiberty
)

// NewNet builds a policy/value network.
func NewNet(cfg NetConfig) *Net { return net.New(cfg) }

// NewDeepRL builds the Deep-RL solver around an evaluator.
func NewDeepRL(evaluator Evaluator, cfg DeepRLConfig) *DeepRL {
	return &DeepRL{Net: evaluator, Cfg: cfg}
}

// Training pipeline.
type (
	// Trainer runs the self-play loop of Section IV-A.
	Trainer = selfplay.Trainer
	// TrainerConfig tunes it; Generate supplies episode graphs.
	TrainerConfig = selfplay.Config
	// IterStats summarizes one training iteration.
	IterStats = selfplay.IterStats
)

// NewTrainer wraps selfplay.NewTrainer; it returns an error for an
// invalid configuration (e.g. a missing Generate function).
func NewTrainer(n *Net, cfg TrainerConfig) (*Trainer, error) { return selfplay.NewTrainer(n, cfg) }

// MustTrainer wraps selfplay.New, which panics on an invalid
// configuration; it is a convenience for tests and examples.
func MustTrainer(n *Net, cfg TrainerConfig) *Trainer { return selfplay.New(n, cfg) }

// Random problem generators (the paper's training distributions, plus
// the big-graph workload for the decomposition pipeline).
type (
	ErdosRenyiConfig  = randgraph.Config
	ZeroInfConfig     = randgraph.ZeroInfConfig
	LargeSparseConfig = randgraph.LargeSparseConfig
)

// ErdosRenyi generates a random PBQP graph (Section V-A).
func ErdosRenyi(rng *rand.Rand, cfg ErdosRenyiConfig) *Graph {
	return randgraph.ErdosRenyi(rng, cfg)
}

// ZeroInf generates an ATE-style zero/infinity graph with a guaranteed
// solution.
func ZeroInf(rng *rand.Rand, cfg ZeroInfConfig) (*Graph, Selection) {
	return randgraph.ZeroInf(rng, cfg)
}

// LargeSparse generates a large sparse PBQP graph as chains of dense
// clusters joined by bridges — the workload the decomposition pipeline
// targets.
func LargeSparse(rng *rand.Rand, cfg LargeSparseConfig) *Graph {
	return randgraph.LargeSparse(rng, cfg)
}
