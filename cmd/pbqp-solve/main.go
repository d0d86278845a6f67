// Command pbqp-solve reads a PBQP problem in the textual format of
// internal/pbqp (see `pbqp-solve -help` for the grammar) and solves it
// with a deadline-aware solver chain.
//
// Usage:
//
//	pbqp-solve [-solver CHAIN] [-k N] [-order fixed|random|inc|dec]
//	           [-timeout 50ms] [-stats-json] file.pbqp
//
// -solver is a comma-separated chain of stage names, the grammar of
// pbqp-serve -chain: brute, scholz, liberty, anneal, rl or rl-bt (rl
// with backtracking), each optionally prefixed decomp:. Every chain, a
// single stage included, runs through internal/solve/portfolio, as in
// pbqp-serve: the timeout is split across stages, a stage panic is
// recovered, the chain stops at the first complete feasible answer, and
// the cheapest feasible one wins. rl-bt,liberty,scholz is pbqp-serve's
// default chain. The rl solvers use an untrained (uniform-prior) network unless
// -net points at a checkpoint produced by pbqp-train; -order and -net
// are checked before the graph is read, whichever solver runs. -timeout
// bounds the wall-clock time of the whole solve; on expiry the best
// selection found so far is printed and the result is marked
// truncated. Under each stage that ran, a "stats:" line lists what the
// stage's solver counted (its solve.Result.Stats, keys sorted): rl-bt's
// backtracks, dead ends, jumps and forced colors, liberty's split of
// its states, a decomp: stage's decomposition. -stats-json prints the
// per-stage portfolio.Stats report as one JSON line on stderr — the
// same struct pbqp-serve returns in its responses, each stage's record
// under "result"."stats".
//
// A decomp: stage routes its solve through the big-graph pipeline
// (internal/decomp): exact R0/R1/R2 reduction, block-cut splitting of
// the residual, per-block solving with the named solver, and
// recombination. -decomp-workers bounds component parallelism (0
// auto-selects GOMAXPROCS for the concurrency-safe solvers; the rl solvers,
// whose scratch buffers are not concurrency-safe, always use 1). The
// stage's stats are its decomposition's: eliminated vertices,
// component and block counts, largest block, and the seconds of each
// step under the keys ending in _s.
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
	"slices"
	"strconv"
	"time"

	"pbqprl/internal/experiments"
	"pbqprl/internal/game"
	"pbqprl/internal/mcts"
	"pbqprl/internal/pbqp"
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
	solver := fs.String("solver", "scholz", "solver chain: comma-separated brute, scholz, liberty, anneal, rl, or rl-bt (with backtracking), each optionally prefixed decomp:")
	k := fs.Int("k", 50, "MCTS simulations per action for the rl solvers")
	orderFlag := fs.String("order", "dec", "coloring order for rl solvers: fixed, random, inc, dec")
	netPath := fs.String("net", "", "network checkpoint for rl solvers (empty: uniform prior)")
	maxStates := fs.Int64("max-states", 50_000_000, "search budget")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for the solve (0 = unlimited); exceeding it returns the best-so-far with exit status 3")
	statsJSON := fs.Bool("stats-json", false, "print per-stage solver stats as JSON to stderr — the same portfolio.Stats struct pbqp-serve returns")
	decompWorkers := fs.Int("decomp-workers", 0, "parallel component solves of a decomp: stage (0 = GOMAXPROCS); rl solvers always solve components one at a time")
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
	chain, err := stages.Chain(portfolio.SplitChain(*solver))
	if err != nil {
		return fail(err)
	}
	p := portfolio.New(*timeout, chain...)

	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	g, err := pbqp.Read(f)
	f.Close()
	if err != nil {
		return fail(err)
	}

	res, stats := p.SolveStats(context.Background(), g)
	if *statsJSON {
		data, err := json.Marshal(stats)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stderr, string(data))
	}

	fmt.Fprintf(stdout, "solver:    %s\n", p.Name())
	fmt.Fprintf(stdout, "feasible:  %v\n", res.Feasible)
	fmt.Fprintf(stdout, "truncated: %v\n", res.Truncated)
	fmt.Fprintf(stdout, "states:    %d\n", res.States)
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
		if st := out.Result.Stats; len(st) > 0 {
			keys := make([]string, 0, len(st))
			for key := range st {
				keys = append(keys, key)
			}
			slices.Sort(keys)
			fmt.Fprint(stdout, "stats:    ")
			for _, key := range keys {
				fmt.Fprintf(stdout, " %s=%s", key, strconv.FormatFloat(st[key], 'f', -1, 64))
			}
			fmt.Fprintln(stdout)
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
