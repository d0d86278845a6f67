// Command pbqp-solve reads a PBQP problem in the textual format of
// internal/pbqp (see `pbqp-solve -help` for the grammar) and solves it
// with the selected solver or a deadline-aware solver portfolio.
//
// Usage:
//
//	pbqp-solve [-solver brute|scholz|liberty|anneal|rl|rl-bt] [-k N] [-order fixed|random|inc|dec]
//	           [-timeout 50ms] [-portfolio] [-stats-json] file.pbqp
//
// The rl solvers use an untrained (uniform-prior) network unless -net
// points at a checkpoint produced by pbqp-train; -order and -net are
// checked before the graph is read, whichever solver runs. -timeout
// bounds the wall-clock time of the whole solve; on expiry the best
// selection found so far is printed and the result is marked
// truncated. -portfolio ignores -solver and runs
// portfolio.DefaultChain, deep-rl+backtrack → liberty → scholz (the
// default chain of pbqp-serve), splitting the timeout across stages,
// recovering stage panics, and keeping the cheapest feasible answer. -stats-json prints the per-stage portfolio.Stats report as
// one JSON line on stderr (a single -solver reports as a one-stage
// chain) — the same struct pbqp-serve returns in its responses.
//
// -decompose routes the solve through the big-graph pipeline
// (internal/decomp): exact R0/R1/R2 reduction, block-cut splitting of
// the residual, per-block solving with the selected solver, and
// recombination. -decomp-workers bounds component parallelism (0
// auto-selects GOMAXPROCS for the stateless solvers and 1 for the rl
// solvers, whose scratch buffers are not concurrency-safe). With
// -stats-json, the decomposition statistics (eliminated vertices,
// component/block counts, largest block) join the report under
// "decomposition".
//
// Exit status:
//
//	0  a feasible selection was found and the search completed
//	1  usage or I/O error
//	2  the problem is infeasible (search completed, no selection)
//	3  the deadline truncated the search (feasible best-so-far, if
//	   any, is still printed)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"pbqprl/internal/decomp"
	"pbqprl/internal/experiments"
	"pbqprl/internal/game"
	"pbqprl/internal/mcts"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/solve"
	"pbqprl/internal/solve/portfolio"
)

const (
	exitOK         = 0
	exitError      = 1
	exitInfeasible = 2
	exitTruncated  = 3
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, solves, writes the report
// to stdout and diagnostics to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pbqp-solve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	solver := fs.String("solver", "scholz", "brute, scholz, liberty, anneal, rl, or rl-bt (with backtracking)")
	k := fs.Int("k", 50, "MCTS simulations per action for the rl solvers")
	orderFlag := fs.String("order", "dec", "coloring order for rl solvers: fixed, random, inc, dec")
	netPath := fs.String("net", "", "network checkpoint for rl solvers (empty: uniform prior)")
	maxStates := fs.Int64("max-states", 50_000_000, "search budget")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for the solve (0 = unlimited); exceeding it returns the best-so-far with exit status 3")
	usePortfolio := fs.Bool("portfolio", false, "run the "+portfolio.DefaultChain+" fallback chain under -timeout instead of -solver")
	statsJSON := fs.Bool("stats-json", false, "print per-stage solver stats as JSON to stderr — the same portfolio.Stats struct pbqp-serve returns")
	decompose := fs.Bool("decompose", false, "solve via the big-graph pipeline: reduce, split into biconnected blocks, solve blocks with the selected solver, recombine")
	decompWorkers := fs.Int("decomp-workers", 0, "parallel component solves for -decompose (0 = GOMAXPROCS); rl solvers always solve components one at a time")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return exitOK
		}
		return exitError
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: pbqp-solve [flags] file.pbqp")
		fs.Usage()
		return exitError
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "pbqp-solve:", err)
		return exitError
	}

	stages := portfolio.Builder{MaxStates: *maxStates, K: *k, DecompWorkers: *decompWorkers}
	if stages.DecompWorkers <= 0 {
		stages.DecompWorkers = runtime.GOMAXPROCS(0)
	}
	var err error
	if stages.Order, err = game.ParseOrder(*orderFlag); err != nil {
		return fail(err)
	}
	if *netPath != "" {
		n := experiments.LoadNet(*netPath)
		if n == nil {
			return fail(fmt.Errorf("cannot load network %s", *netPath))
		}
		stages.Evaluator = func() mcts.Evaluator { return n }
	}
	names := []string{*solver}
	if *usePortfolio {
		names = portfolio.SplitChain(portfolio.DefaultChain)
	}
	if *decompose {
		for i, name := range names {
			names[i] = "decomp:" + name
		}
	}
	chain, err := stages.Chain(names)
	if err != nil {
		return fail(err)
	}
	s := chain[0]
	if *usePortfolio {
		s = portfolio.New(*timeout, chain...)
	}

	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	g, err := pbqp.Read(f)
	f.Close()
	if err != nil {
		return fail(err)
	}

	var res solve.Result
	var stats *portfolio.Stats
	var jsonStats *portfolio.Stats
	var decompInfo *decomp.Info
	if p, ok := s.(*portfolio.Solver); ok {
		// The portfolio manages its own -timeout budget itself; per-stage
		// outcomes are worth reporting.
		r, st := p.SolveStats(context.Background(), g)
		res, stats, jsonStats = r, &st, &st
	} else {
		//pbqpvet:ignore determinism -stats-json reports operational solve latency, never solver input
		start := time.Now()
		ctx, cancel := context.Background(), context.CancelFunc(func() {})
		if *timeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, *timeout)
		}
		if ds, ok := s.(*decomp.Solver); ok {
			r, di := ds.SolveWithInfo(ctx, g)
			res, decompInfo = r, &di
		} else if *timeout > 0 {
			res = s.SolveCtx(ctx, g)
		} else {
			res = s.Solve(g)
		}
		cancel()
		if *statsJSON {
			// A single solver reports as a one-stage chain so CLI and
			// service emit the same shape regardless of -portfolio.
			winner := -1
			if res.Feasible {
				winner = 0
			}
			jsonStats = &portfolio.Stats{
				Stages: []portfolio.Outcome{{Name: s.Name(), Result: res, Duration: time.Since(start)}},
				Winner: winner,
			}
		}
	}
	if *statsJSON && jsonStats != nil {
		data, err := json.Marshal(statsReport{Stats: jsonStats, Decomposition: decompInfo})
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stderr, string(data))
	}

	fmt.Fprintf(stdout, "solver:    %s\n", s.Name())
	fmt.Fprintf(stdout, "feasible:  %v\n", res.Feasible)
	fmt.Fprintf(stdout, "truncated: %v\n", res.Truncated)
	fmt.Fprintf(stdout, "states:    %d\n", res.States)
	if decompInfo != nil {
		fmt.Fprintf(stdout, "decomp:    eliminated %d of %d, residual %d in %d components / %d blocks (largest %d, cuts %d)\n",
			decompInfo.Eliminated, decompInfo.OriginalVertices, decompInfo.ResidualVertices,
			decompInfo.Components, decompInfo.Blocks, decompInfo.LargestBlock, decompInfo.CutVertices)
		fmt.Fprintf(stdout, "decomp:    reduce %.3fs, csr %.3fs, block-cut %.3fs, block solves %.3fs, expand %.3fs\n",
			decompInfo.Reduce, decompInfo.CSR, decompInfo.BlockCut, decompInfo.Solve, decompInfo.Expand)
	}
	if stats != nil {
		for _, out := range stats.Stages {
			switch {
			case out.Skipped:
				fmt.Fprintf(stdout, "stage %-22s skipped (budget exhausted or earlier stage succeeded)\n", out.Name+":")
			case out.Panicked:
				fmt.Fprintf(stdout, "stage %-22s PANICKED (%s) in %v\n", out.Name+":", out.PanicValue, out.Duration.Round(time.Microsecond))
			default:
				fmt.Fprintf(stdout, "stage %-22s feasible=%v truncated=%v states=%d in %v\n",
					out.Name+":", out.Result.Feasible, out.Result.Truncated, out.Result.States, out.Duration.Round(time.Microsecond))
			}
		}
	}
	if res.Feasible {
		fmt.Fprintf(stdout, "cost:      %s\n", res.Cost)
		fmt.Fprintf(stdout, "selection:")
		for _, c := range res.Selection {
			fmt.Fprintf(stdout, " %d", c)
		}
		fmt.Fprintln(stdout)
	}
	switch {
	case res.Truncated:
		return exitTruncated
	case !res.Feasible:
		return exitInfeasible
	}
	return exitOK
}

// statsReport is the -stats-json line: the portfolio stage report plus,
// when -decompose ran outside a portfolio, the decomposition statistics.
type statsReport struct {
	*portfolio.Stats
	Decomposition *decomp.Info `json:"decomposition,omitempty"`
}
