// Command pbqp-serve runs the PBQP allocation service: a long-running
// HTTP daemon that solves PBQP graphs POSTed in the textual format of
// internal/pbqp through a deadline-aware solver portfolio, at most
// -workers solves at once.
//
// Usage:
//
//	pbqp-serve [-addr :8723] [-workers N] [-queue N] [-max-body 4194304]
//	           [-default-deadline 2s] [-max-deadline 30s]
//	           [-chain rl-bt,liberty,scholz] [-net checkpoint]
//	           [-k 50] [-order fixed|random|inc|dec] [-max-states N]
//	           [-max-vertices N] [-max-colors N]
//	           [-drain-timeout 30s]
//
// Endpoints:
//
//	POST /v1/solve      solve a graph; knobs via query or header:
//	                    chain/X-PBQP-Chain, deadline/X-PBQP-Deadline,
//	                    cost-mode/X-PBQP-Cost-Mode (zeroinf|spill)
//	GET  /metrics       metrics snapshot (expvar-style JSON)
//	GET  /healthz       liveness (200 while the process runs)
//	GET  /readyz        readiness (503 once draining)
//	GET  /debug/pprof/  runtime profiles
//
// Response status ↔ pbqp-solve exit code: 200 with "truncated":false ↔
// exit 0 (solved); 400/413 ↔ exit 1 (bad input); 422 ↔ exit 2
// (infeasible); 200 with "truncated":true or 504 ↔ exit 3 (deadline
// cut the search). 429 and 503 are service conditions with no CLI
// equivalent: queue full and draining.
//
// On SIGTERM or SIGINT the daemon drains gracefully: it stops
// accepting solves (readyz flips to 503), finishes every accepted
// request, then exits 0. A second signal — or the drain timeout —
// forces exit 1.
//
// Exit status:
//
//	0  drained cleanly after a signal
//	1  a forced drain, a -net that fails to load, or a listen failure
//	2  usage error: a bad flag, a stray argument, an unknown -order or
//	   an unknown stage in -chain
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"time"

	"pbqprl/internal/daemon"
	"pbqprl/internal/experiments"
	"pbqprl/internal/game"
	"pbqprl/internal/mcts"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/server"
	"pbqprl/internal/solve/portfolio"
)

const (
	exitOK    = 0
	exitError = 1
	exitUsage = 2
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, serves until a signal
// drains the daemon, logs to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pbqp-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8723", "listen address")
	workers := fs.Int("workers", 0, "solves in flight at once (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 128, "admission queue depth; beyond it requests are shed with 429")
	maxBody := fs.Int64("max-body", 4<<20, "request body size cap in bytes")
	defaultDeadline := fs.Duration("default-deadline", 2*time.Second, "per-request solve budget when the client does not set one")
	maxDeadline := fs.Duration("max-deadline", 30*time.Second, "cap on client-requested deadlines")
	chain := fs.String("chain", portfolio.DefaultChain, "default solver fallback chain (comma separated; prefix a stage with decomp: to route it through the big-graph decomposition pipeline)")
	netPath := fs.String("net", "", "network checkpoint for rl stages (empty: uniform prior)")
	k := fs.Int("k", 50, "MCTS simulations per action for rl stages")
	orderFlag := fs.String("order", "dec", "coloring order for rl stages: fixed, random, inc, dec")
	maxStates := fs.Int64("max-states", 50_000_000, "per-stage search budget")
	maxVertices := fs.Int("max-vertices", 0, "per-request vertex cap (0 = parser default)")
	maxColors := fs.Int("max-colors", 0, "per-request color cap (0 = parser default)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain may wait for in-flight solves")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return exitOK
		}
		return exitUsage
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "pbqp-serve: "+format+"\n", a...)
		return exitUsage
	}
	if fs.NArg() > 0 {
		return usage("unexpected argument %q", fs.Arg(0))
	}
	order, err := game.ParseOrder(*orderFlag)
	if err != nil {
		return usage("%v", err)
	}
	logger := log.New(stderr, "pbqp-serve: ", log.LstdFlags|log.Lmsgprefix)

	var evaluator func() mcts.Evaluator // nil: the uniform prior
	if *netPath != "" {
		base := experiments.LoadNet(*netPath)
		if base == nil {
			logger.Printf("cannot load network %s", *netPath)
			return exitError
		}
		// Network evaluators carry the inference engine's scratch and
		// memo tables; hand every request its own clone so worker
		// goroutines never share one. A clone starts cold.
		evaluator = func() mcts.Evaluator { return base.Clone() }
	}

	// server.New fails only on the default chain.
	srv, err := server.New(server.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		MaxRequestBytes: *maxBody,
		DefaultDeadline: *defaultDeadline,
		MaxDeadline:     *maxDeadline,
		ReadLimits:      pbqp.ReadLimits{MaxVertices: *maxVertices, MaxColors: *maxColors},
		DefaultChain:    portfolio.SplitChain(*chain),
		MaxStates:       *maxStates,
		K:               *k,
		Order:           order,
		Evaluator:       evaluator,
		Logf:            logger.Printf,
	})
	if err != nil {
		return usage("%v", err)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	logger.Printf("listening on %s", *addr)
	if err := daemon.ServeUntilSignal(httpSrv, srv.Drain, *drainTimeout, logger.Printf); err != nil {
		logger.Print(err)
		return exitError
	}
	return exitOK
}
