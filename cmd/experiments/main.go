// Command experiments regenerates the paper's tables and figures
// (DESIGN.md experiments E1–E9) and prints them to stdout.
//
// Usage:
//
//	experiments [-run all|fig6|ate-k|searchspace|deadend|ktradeoff|llvm-cost|llvm-speedup|baselines] [-v]
//
// An argument that is not a flag, such as "fig6" with the -run
// forgotten, is a usage error (exit 2), as is an unknown -run.
//
// Networks are trained on first use at laptop scale and cached under
// os.TempDir()/pbqprl-nets, so the first invocation trains for a few
// minutes and later ones start immediately.
package main

import (
	"flag"
	"fmt"
	"os"

	"pbqprl/internal/experiments"
)

func main() {
	run := flag.String("run", "all", "experiment to run: all, fig6, ate-k, searchspace, deadend, ktradeoff, llvm-cost, llvm-speedup, baselines")
	verbose := flag.Bool("v", false, "print per-step progress")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "experiments: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	var progress func(string)
	if *verbose {
		progress = func(s string) { fmt.Fprintln(os.Stderr, "# "+s) }
	}
	out := os.Stdout

	want := func(name string) bool { return *run == "all" || *run == name }
	ran := false
	if want("fig6") {
		experiments.PrintFig6(out, experiments.Fig6(progress))
		ran = true
	}
	if want("ate-k") {
		experiments.PrintATESuccess(out, experiments.ATESuccess(progress))
		ran = true
	}
	if want("searchspace") || want("baselines") {
		experiments.PrintSearchSpace(out, experiments.SearchSpace(progress))
		ran = true
	}
	if want("deadend") {
		experiments.PrintDeadEnd(out, experiments.DeadEndAblation(progress))
		ran = true
	}
	if want("ktradeoff") {
		experiments.PrintKTradeoff(out, experiments.KTradeoff(progress))
		ran = true
	}
	if want("llvm-cost") {
		experiments.PrintCostSums(out, experiments.CostSums(progress))
		ran = true
	}
	if want("llvm-speedup") {
		experiments.PrintSpeedups(out, experiments.Speedups(progress))
		ran = true
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *run)
		flag.Usage()
		os.Exit(2)
	}
}
