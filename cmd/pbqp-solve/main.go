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
// points at a checkpoint produced by pbqp-train. -timeout bounds the
// wall-clock time of the whole solve; on expiry the best selection
// found so far is printed and the result is marked truncated.
// -portfolio ignores -solver and runs the fallback chain
// deep-rl+backtrack → liberty → scholz, splitting the timeout across
// stages, recovering stage panics, and keeping the cheapest feasible
// answer. -stats-json prints the per-stage portfolio.Stats report as
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
	"os"
	"runtime"
	"time"

	"pbqprl/internal/decomp"
	"pbqprl/internal/experiments"
	"pbqprl/internal/game"
	"pbqprl/internal/mcts"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/rl"
	"pbqprl/internal/solve"
	"pbqprl/internal/solve/anneal"
	"pbqprl/internal/solve/brute"
	"pbqprl/internal/solve/liberty"
	"pbqprl/internal/solve/portfolio"
	"pbqprl/internal/solve/scholz"
)

const (
	exitOK         = 0
	exitError      = 1
	exitInfeasible = 2
	exitTruncated  = 3
)

func main() {
	solver := flag.String("solver", "scholz", "brute, scholz, liberty, anneal, rl, or rl-bt (with backtracking)")
	k := flag.Int("k", 50, "MCTS simulations per action for the rl solvers")
	orderFlag := flag.String("order", "dec", "coloring order for rl solvers: fixed, random, inc, dec")
	netPath := flag.String("net", "", "network checkpoint for rl solvers (empty: uniform prior)")
	maxStates := flag.Int64("max-states", 50_000_000, "search budget")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the solve (0 = unlimited); exceeding it returns the best-so-far with exit status 3")
	usePortfolio := flag.Bool("portfolio", false, "run the deep-rl+backtrack → liberty → scholz fallback chain under -timeout instead of -solver")
	statsJSON := flag.Bool("stats-json", false, "print per-stage solver stats as JSON to stderr — the same portfolio.Stats struct pbqp-serve returns")
	decompose := flag.Bool("decompose", false, "solve via the big-graph pipeline: reduce, split into biconnected blocks, solve blocks with the selected solver, recombine")
	decompWorkers := flag.Int("decomp-workers", 0, "parallel component solves for -decompose (0 = auto: GOMAXPROCS for stateless solvers, 1 for rl)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pbqp-solve [flags] file.pbqp")
		flag.Usage()
		os.Exit(exitError)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	g, err := pbqp.Read(f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	rlSolver := func(backtrack bool) solve.Solver {
		var evaluator mcts.Evaluator = mcts.Uniform{}
		if *netPath != "" {
			n := experiments.LoadNet(*netPath)
			if n == nil {
				fatal(fmt.Errorf("cannot load network %s", *netPath))
			}
			evaluator = n
		}
		return &rl.Solver{Net: evaluator, Cfg: rl.Config{
			K:            *k,
			Order:        parseOrder(*orderFlag),
			Backtrack:    backtrack,
			ReinvokeMCTS: true,
			MaxNodes:     *maxStates,
		}}
	}

	wrapDecomp := func(inner solve.Solver) solve.Solver {
		if !*decompose {
			return inner
		}
		return &decomp.Solver{Inner: inner, Workers: autoWorkers(inner, *decompWorkers)}
	}

	var s solve.Solver
	switch {
	case *usePortfolio:
		s = portfolio.New(*timeout,
			wrapDecomp(rlSolver(true)),
			wrapDecomp(liberty.Solver{MaxStates: *maxStates}),
			wrapDecomp(scholz.Solver{}),
		)
	default:
		switch *solver {
		case "brute":
			s = brute.Solver{MaxStates: *maxStates}
		case "scholz":
			s = scholz.Solver{}
		case "liberty":
			s = liberty.Solver{MaxStates: *maxStates}
		case "anneal":
			s = anneal.Solver{}
		case "rl", "rl-bt":
			s = rlSolver(*solver == "rl-bt")
		default:
			fatal(fmt.Errorf("unknown solver %q", *solver))
		}
		s = wrapDecomp(s)
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
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, string(data))
	}

	fmt.Printf("solver:    %s\n", s.Name())
	fmt.Printf("feasible:  %v\n", res.Feasible)
	fmt.Printf("truncated: %v\n", res.Truncated)
	fmt.Printf("states:    %d\n", res.States)
	if decompInfo != nil {
		fmt.Printf("decomp:    eliminated %d of %d, residual %d in %d components / %d blocks (largest %d, cuts %d)\n",
			decompInfo.Eliminated, decompInfo.OriginalVertices, decompInfo.ResidualVertices,
			decompInfo.Components, decompInfo.Blocks, decompInfo.LargestBlock, decompInfo.CutVertices)
		fmt.Printf("decomp:    reduce %.3fs, csr %.3fs, block-cut %.3fs, block solves %.3fs, expand %.3fs\n",
			decompInfo.Reduce, decompInfo.CSR, decompInfo.BlockCut, decompInfo.Solve, decompInfo.Expand)
	}
	if stats != nil {
		for _, out := range stats.Stages {
			switch {
			case out.Skipped:
				fmt.Printf("stage %-22s skipped (budget exhausted or earlier stage succeeded)\n", out.Name+":")
			case out.Panicked:
				fmt.Printf("stage %-22s PANICKED (%s) in %v\n", out.Name+":", out.PanicValue, out.Duration.Round(time.Microsecond))
			default:
				fmt.Printf("stage %-22s feasible=%v truncated=%v states=%d in %v\n",
					out.Name+":", out.Result.Feasible, out.Result.Truncated, out.Result.States, out.Duration.Round(time.Microsecond))
			}
		}
	}
	if res.Feasible {
		fmt.Printf("cost:      %s\n", res.Cost)
		fmt.Printf("selection:")
		for _, c := range res.Selection {
			fmt.Printf(" %d", c)
		}
		fmt.Println()
	}
	switch {
	case res.Truncated:
		os.Exit(exitTruncated)
	case !res.Feasible:
		os.Exit(exitInfeasible)
	}
	os.Exit(exitOK)
}

// statsReport is the -stats-json line: the portfolio stage report plus,
// when -decompose ran outside a portfolio, the decomposition statistics.
type statsReport struct {
	*portfolio.Stats
	Decomposition *decomp.Info `json:"decomposition,omitempty"`
}

// autoWorkers resolves the -decomp-workers value: an explicit positive
// flag wins; otherwise stateless solvers get GOMAXPROCS-wide component
// parallelism and everything else (the rl solvers reuse per-instance
// scratch) stays sequential.
func autoWorkers(inner solve.Solver, flagVal int) int {
	if flagVal > 0 {
		return flagVal
	}
	switch inner.(type) {
	case brute.Solver, scholz.Solver, liberty.Solver, anneal.Solver:
		return runtime.GOMAXPROCS(0)
	}
	return 1
}

func parseOrder(s string) game.Order {
	switch s {
	case "fixed":
		return game.OrderFixed
	case "random":
		return game.OrderRandom
	case "inc":
		return game.OrderIncLiberty
	case "dec":
		return game.OrderDecLiberty
	default:
		fatal(fmt.Errorf("unknown order %q", s))
		return 0
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pbqp-solve:", err)
	os.Exit(exitError)
}
