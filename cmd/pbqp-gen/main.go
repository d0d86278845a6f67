// Command pbqp-gen generates random PBQP problem instances in the
// textual format that pbqp-solve consumes (and optionally Graphviz DOT
// for visualization).
//
// Usage:
//
//	pbqp-gen [-kind er|zeroinf|large] [-n N] [-m M] [-pedge P] [-pinf P] [-seed S] [-dot out.dot] > problem.pbqp
//
// -kind large emits the big-graph workload for the decomposition
// pipeline (pbqp-solve -solver decomp:scholz): chains of dense
// circulant clusters joined by bridges, with -components connected
// components, clusters of -cluster vertices, and -chords extra random
// edges per cluster.
//
// Exit status:
//
//	0  the graph was written
//	1  writing the graph or the DOT file failed
//	2  usage error: a bad flag, a stray argument or an unknown -kind
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"pbqprl/internal/pbqp"
	"pbqprl/internal/randgraph"
)

const (
	exitOK    = 0
	exitError = 1
	exitUsage = 2
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes the graph to stdout
// and diagnostics to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pbqp-gen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	kind := fs.String("kind", "er", "er (Erdős–Rényi, paper's training distribution), zeroinf (ATE-style), or large (sparse big-graph workload)")
	n := fs.Int("n", 40, "vertices")
	m := fs.Int("m", 13, "colors")
	pEdge := fs.Float64("pedge", 0.2, "edge probability")
	pInf := fs.Float64("pinf", 0.01, "infinite-entry ratio (er) / edge-entry ratio (zeroinf)")
	hard := fs.Float64("hard", 0.4, "hard-vertex ratio (zeroinf only)")
	components := fs.Int("components", 1, "connected components (large only)")
	cluster := fs.Int("cluster", 12, "dense-cluster size (large only)")
	chords := fs.Int("chords", 4, "extra random edges per cluster (large only)")
	seed := fs.Int64("seed", 1, "generator seed")
	dot := fs.String("dot", "", "also write Graphviz DOT to this file")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return exitOK
		}
		return exitUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "pbqp-gen: unexpected argument %q\n", fs.Arg(0))
		return exitUsage
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "pbqp-gen:", err)
		return exitError
	}

	rng := rand.New(rand.NewSource(*seed))
	var g *pbqp.Graph
	switch *kind {
	case "er":
		g = randgraph.ErdosRenyi(rng, randgraph.Config{
			N: *n, M: *m, PEdge: *pEdge, PInf: *pInf,
		})
	case "zeroinf":
		var hidden pbqp.Selection
		g, hidden = randgraph.ZeroInf(rng, randgraph.ZeroInfConfig{
			N: *n, M: *m, PEdge: *pEdge, HardRatio: *hard, PEdgeInf: max(*pInf, 0.25),
		})
		fmt.Fprintf(stderr, "# hidden zero-cost solution: %v\n", hidden)
	case "large":
		g = randgraph.LargeSparse(rng, randgraph.LargeSparseConfig{
			N: *n, M: *m, Components: *components, ClusterSize: *cluster,
			Chords: *chords, PInf: *pInf,
		})
	default:
		fmt.Fprintf(stderr, "pbqp-gen: unknown kind %q\n", *kind)
		return exitUsage
	}
	if err := pbqp.Write(stdout, g); err != nil {
		return fail(err)
	}
	if *dot != "" {
		f, err := os.Create(*dot)
		if err != nil {
			return fail(err)
		}
		err = pbqp.WriteDOT(f, g, "pbqp")
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fail(err)
		}
	}
	return exitOK
}
