// Command ate-alloc allocates registers for the synthetic product-level
// ATE programs (PRO1–PRO10) with any of the solvers, mirroring the
// translation workflow of Section II-B: given a test-pattern program
// known to run on its source ATE, find a register assignment valid for
// the target machine.
//
// Usage:
//
//	ate-alloc [-program PRO1|...|PRO10|all] [-solver NAME] [-k N] [-listing]
//
// -solver is one stage name of pbqp-solve's chain grammar: brute,
// scholz, liberty, anneal, rl or rl-bt, optionally prefixed decomp:.
// The rl solvers use the increasing-liberty order and a network trained
// at k_train = 50 by each run that needs one (a few seconds).
//
// Exit status:
//
//	0  every selected program was allocated
//	1  the solver found no valid assignment for some program
//	2  usage error: a bad flag, a stray argument, an unknown -program or -solver
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"pbqprl/internal/ate"
	"pbqprl/internal/experiments"
	"pbqprl/internal/game"
	"pbqprl/internal/mcts"
	"pbqprl/internal/solve/portfolio"
)

const (
	exitOK         = 0
	exitInfeasible = 1
	exitUsage      = 2
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes each program's
// allocation to stdout and diagnostics to stderr, and returns the exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ate-alloc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	program := fs.String("program", "all", "PRO1..PRO10 or all")
	solver := fs.String("solver", "rl-bt", "brute, scholz, liberty, anneal, rl, or rl-bt, optionally prefixed decomp:")
	k := fs.Int("k", 25, "MCTS simulations per action for rl solvers")
	listing := fs.Bool("listing", false, "print the program listing before allocating")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return exitOK
		}
		return exitUsage
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "ate-alloc: "+format+"\n", a...)
		return exitUsage
	}
	if fs.NArg() > 0 {
		return usage("unexpected argument %q", fs.Arg(0))
	}
	suite := ate.Suite()
	if *program != "all" {
		i := slices.IndexFunc(suite, func(b ate.Benchmark) bool { return b.Program.Name == *program })
		if i < 0 {
			return usage("unknown program %q", *program)
		}
		suite = suite[i : i+1]
	}
	// increasing-liberty is the robust order at laptop training scale
	// (see EXPERIMENTS.md E1); only an rl stage trains the net.
	s, err := portfolio.Builder{
		MaxStates: 50_000_000,
		K:         *k,
		Order:     game.OrderIncLiberty,
		Evaluator: func() mcts.Evaluator {
			return experiments.TrainedNet(experiments.SpecK50(), func(line string) {
				fmt.Fprintln(stderr, "# "+line)
			})
		},
	}.Stage(*solver)
	if err != nil {
		return usage("%v", err)
	}

	code := exitOK
	for _, b := range suite {
		if *listing {
			fmt.Fprint(stdout, b.Program.String())
		}
		res := s.Solve(b.Graph)
		fmt.Fprintf(stdout, "%-6s n=%-3d solver=%-18s feasible=%-5v states=%d\n",
			b.Program.Name, b.Graph.NumVertices(), s.Name(), res.Feasible, res.States)
		if !res.Feasible {
			code = exitInfeasible
			continue
		}
		fmt.Fprintf(stdout, "       assignment:")
		for v, c := range res.Selection {
			if v > 0 && v%16 == 0 {
				fmt.Fprintf(stdout, "\n                 ")
			}
			fmt.Fprintf(stdout, " v%d=r%d", v, c)
		}
		fmt.Fprintln(stdout)
	}
	return code
}
