// Command llvm-bench compiles the synthetic llvm-test-suite stand-in
// through the mini backend and compares the register allocators of
// Section V-C: per-program spills, estimated cycles and speedup vs
// FAST, for FAST/BASIC/GREEDY/PBQP (and PBQP-RL with -rl).
//
// Usage:
//
//	llvm-bench [-program name|all] [-rl] [-k N]
//
// Exit status:
//
//	0  the table was written
//	2  usage error: a bad flag, a stray argument or an unknown -program
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"pbqprl/internal/experiments"
	"pbqprl/internal/llvmsuite"
	"pbqprl/internal/net"
	"pbqprl/internal/perfmodel"
	"pbqprl/internal/regalloc"
	"pbqprl/internal/solve/scholz"
)

const (
	exitOK    = 0
	exitUsage = 2
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes the table to stdout
// and diagnostics to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("llvm-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	program := fs.String("program", "all", "benchmark name or all")
	useRL := fs.Bool("rl", false, "include the PBQP-RL allocator (trains a network on first use)")
	k := fs.Int("k", 40, "MCTS simulations per action for PBQP-RL")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return exitOK
		}
		return exitUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "llvm-bench: unexpected argument %q\n", fs.Arg(0))
		return exitUsage
	}
	names := llvmsuite.Names
	if *program != "all" {
		if !slices.Contains(names, *program) {
			fmt.Fprintf(stderr, "llvm-bench: unknown program %q\n", *program)
			return exitUsage
		}
		names = []string{*program}
	}

	var n *net.PBQPNet
	if *useRL {
		n = experiments.LLVMNet(func(s string) { fmt.Fprintln(stderr, "# "+s) })
	}
	target := regalloc.DefaultTarget()
	params := perfmodel.DefaultParams()

	fmt.Fprintf(stdout, "%-12s %-8s %8s %14s %9s\n", "program", "alloc", "spills", "cycles", "speedup")
	for _, name := range names {
		b := llvmsuite.Generate(name)
		fastCycles := 0.0
		collect := func(name string, alloc func(regalloc.Input) regalloc.Assignment) {
			spills, cycles := 0, 0.0
			for i, f := range b.Prog.Funcs {
				in := regalloc.NewInput(f, target, b.Allowed[i])
				asn := alloc(in)
				spills += asn.SpillCount()
				cycles += perfmodel.EstimateFunc(f, asn, params)
			}
			if name == "FAST" {
				fastCycles = cycles
			}
			fmt.Fprintf(stdout, "%-12s %-8s %8d %14.0f %8.3fx\n",
				b.Prog.Name, name, spills, cycles, perfmodel.Speedup(fastCycles, cycles))
		}
		collect("FAST", regalloc.Fast)
		collect("BASIC", regalloc.Basic)
		collect("GREEDY", regalloc.Greedy)
		collect("PBQP", func(in regalloc.Input) regalloc.Assignment {
			asn, _ := regalloc.PBQPAlloc(in, scholz.Solver{})
			return asn
		})
		if n != nil {
			collect("PBQP-RL", func(in regalloc.Input) regalloc.Assignment {
				g := regalloc.BuildPBQP(in)
				base := (scholz.Solver{}).Solve(g)
				asn, _ := regalloc.PBQPAlloc(in, experiments.LLVMSolver(n, *k, base.Cost))
				return asn
			})
		}
	}
	return exitOK
}
