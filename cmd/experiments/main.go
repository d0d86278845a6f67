// Command experiments regenerates the paper's tables and figures
// (DESIGN.md experiments E1–E9) and prints them to stdout.
//
// Usage:
//
//	experiments [-run all|fig6|ate-k|searchspace|deadend|ktradeoff|llvm-cost|llvm-speedup|baselines] [-v]
//
// Exit status:
//
//	0  the selected experiments ran
//	2  usage error: a bad flag, a stray argument (such as "fig6" with
//	   the -run forgotten) or an unknown -run
//
// Each run trains the laptop-scale networks it needs in its own process
// and writes nothing to disk, so the tables always come from the code
// the command is built from. CI diffs `-run all` against
// experiments_output.txt.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pbqprl/internal/experiments"
)

const (
	exitOK    = 0
	exitUsage = 2
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes the tables to stdout
// and progress to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runFlag := fs.String("run", "all", "experiment to run: all, fig6, ate-k, searchspace, deadend, ktradeoff, llvm-cost, llvm-speedup, baselines")
	verbose := fs.Bool("v", false, "print per-step progress")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return exitOK
		}
		return exitUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "experiments: unexpected argument %q\n", fs.Arg(0))
		return exitUsage
	}

	var progress func(string)
	if *verbose {
		progress = func(s string) { fmt.Fprintln(stderr, "# "+s) }
	}

	want := func(name string) bool { return *runFlag == "all" || *runFlag == name }
	ran := false
	if want("fig6") {
		experiments.PrintFig6(stdout, experiments.Fig6(progress))
		ran = true
	}
	if want("ate-k") {
		experiments.PrintATESuccess(stdout, experiments.ATESuccess(progress))
		ran = true
	}
	if want("searchspace") || want("baselines") {
		experiments.PrintSearchSpace(stdout, experiments.SearchSpace(progress))
		ran = true
	}
	if want("deadend") {
		experiments.PrintDeadEnd(stdout, experiments.DeadEndAblation(progress))
		ran = true
	}
	if want("ktradeoff") {
		experiments.PrintKTradeoff(stdout, experiments.KTradeoff(progress))
		ran = true
	}
	if want("llvm-cost") {
		experiments.PrintCostSums(stdout, experiments.CostSums(progress))
		ran = true
	}
	if want("llvm-speedup") {
		experiments.PrintSpeedups(stdout, experiments.Speedups(progress))
		ran = true
	}
	if !ran {
		fmt.Fprintf(stderr, "experiments: unknown experiment %q\n", *runFlag)
		return exitUsage
	}
	return exitOK
}
