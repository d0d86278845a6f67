// Command pbqp-train runs the self-play training pipeline of Section
// IV-A in one process, with fault-tolerant checkpointing.
//
// Usage:
//
//	pbqp-train [-iters N] [-episodes N] [-ktrain N] [-workers N]
//	           [-regime ate|er] [-out net.gob]
//	           [-seed S] [-resume] [-checkpoint-dir DIR] [-checkpoint-every N] [-checkpoint-keep K]
//
// The "ate" regime trains on zero/infinity graphs with the ATE
// statistics; "er" trains on the paper's Erdős–Rényi distribution with
// a 1 % infinity ratio. Paper-scale parameters (-iters 200 -episodes
// 100) reproduce the full two-week run if you have the patience; the
// defaults finish in minutes.
//
// The trainer checkpoints its complete state (both networks, Adam
// moments, replay queue, RNG stream, iteration position) atomically
// every -checkpoint-every iterations, and logs what each checkpoint
// cost: its bytes, the seconds to encode it and the seconds to write
// it. SIGINT/SIGTERM finishes the in-flight episode, checkpoints, and
// exits cleanly; a second signal during that graceful exit forces
// immediate termination with exit code 1. Restarting with -resume (and
// the same flags) continues bit-identically to an uninterrupted run. A
// truncated or corrupt newest checkpoint is detected by checksum and
// the run falls back to the previous valid one.
//
// Episodes, gradient steps and arena games run on -workers goroutines
// (default: all CPUs): episodes and arena games each on a worker's own
// clone of the networks, a minibatch's samples embedded and
// back-propagated side by side while one goroutine adds to every sum in
// sample order. Every episode's randomness comes from a seed
// pre-drawn from the master RNG stream and results are merged in
// episode order, so the worker count never changes the result: any
// -workers value — including resuming a checkpoint under a different
// one — trains bit-identically to -workers 1. The log carries one line
// per iteration with the wall-clock of the three phases and the
// gradient samples per second.
//
// Exit status: 0 trained (or interrupted and checkpointed), 1 runtime
// failure, 2 usage error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"pbqprl/internal/checkpoint"
	"pbqprl/internal/experiments"
	"pbqprl/internal/game"
	"pbqprl/internal/net"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/randgraph"
	"pbqprl/internal/selfplay"
)

const (
	exitOK    = 0
	exitError = 1
	exitUsage = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// selfplayConfig maps the training flags to the configuration a run
// trains under: "ate" plays zero/infinity graphs in decreasing-liberty
// order, "er" Erdős–Rényi graphs with 1 % infinities in fixed order.
// Every constant here shapes the trained bytes (main_test.go pins one
// digest per regime).
func selfplayConfig(regime string, meanN float64, episodes, ktrain int, seed int64) (selfplay.Config, error) {
	cfg := selfplay.Config{
		EpisodesPerIter: episodes,
		KTrain:          ktrain,
		Seed:            seed,
	}
	switch regime {
	case "ate":
		cfg.Order = game.OrderDecLiberty
		cfg.Generate = func(rng *rand.Rand) *pbqp.Graph {
			n := randgraph.NormalN(rng, meanN, meanN/4, 10)
			g, _ := randgraph.ZeroInf(rng, randgraph.ZeroInfConfig{
				N: n, M: 13, PEdge: 0.25, HardRatio: 0.4, PEdgeInf: 0.3,
			})
			return g
		}
	case "er":
		cfg.Order = game.OrderFixed
		cfg.Generate = func(rng *rand.Rand) *pbqp.Graph {
			n := randgraph.NormalN(rng, meanN, meanN/4, 10)
			return randgraph.ErdosRenyi(rng, randgraph.Config{
				N: n, M: 13, PEdge: 0.15, PInf: 0.01, MaxCost: 40,
			})
		}
	default:
		return selfplay.Config{}, fmt.Errorf("unknown regime %q (want ate or er)", regime)
	}
	return cfg, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pbqp-train", flag.ContinueOnError)
	fs.SetOutput(stderr)
	iters := fs.Int("iters", 5, "training iterations (paper: 200)")
	episodes := fs.Int("episodes", 20, "episodes per iteration (paper: 100)")
	ktrain := fs.Int("ktrain", 50, "MCTS simulations per move (paper: 50 or 100)")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "goroutines for self-play episodes, gradient steps and arena games (any value trains bit-identically)")
	regime := fs.String("regime", "ate", "training distribution: ate (zero/inf) or er (Erdős–Rényi, p_inf=1%)")
	out := fs.String("out", "pbqp-net.gob", "best-network output path")
	seed := fs.Int64("seed", 1, "training seed")
	meanN := fs.Float64("mean-n", 36, "mean graph size (paper: 100)")
	ckptDir := fs.String("checkpoint-dir", "", "checkpoint directory (default: <out>.ckpts)")
	ckptEvery := fs.Int("checkpoint-every", 1, "checkpoint every N completed iterations (0 disables periodic checkpoints)")
	ckptKeep := fs.Int("checkpoint-keep", 3, "checkpoints retained on disk")
	resume := fs.Bool("resume", false, "resume from the newest valid checkpoint in -checkpoint-dir")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return exitOK
		}
		return exitUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "pbqp-train: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return exitUsage
	}
	logger := log.New(stderr, "pbqp-train: ", log.LstdFlags)
	fail := func(err error) int {
		logger.Print(err)
		return exitError
	}

	cfg, err := selfplayConfig(*regime, *meanN, *episodes, *ktrain, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "pbqp-train: %v\n", err)
		fs.Usage()
		return exitUsage
	}
	cfg.Workers = *workers
	cfg.Logf = logger.Printf

	// SIGINT/SIGTERM cancels the context; the first signal drains
	// gracefully (finish the in-flight episode, checkpoint, exit
	// cleanly), a second one during that shutdown forces an immediate
	// exit — for the operator whose graceful exit is itself wedged.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	returned := make(chan struct{})
	defer close(returned)
	go func() {
		select {
		case <-sigc:
			cancel()
		case <-returned:
			return
		}
		select {
		case <-sigc:
			logger.Printf("second signal: forcing immediate exit")
			os.Exit(exitError)
		case <-returned:
		}
	}()

	trainer, err := selfplay.NewTrainer(net.New(experiments.DefaultNetConfig()), cfg)
	if err != nil {
		return fail(err)
	}

	if *ckptDir == "" {
		*ckptDir = *out + ".ckpts"
	}
	store, err := checkpoint.NewStore(*ckptDir, *ckptKeep)
	if err != nil {
		return fail(err)
	}
	store.Logf = logger.Printf

	if *resume {
		id, payload, err := store.LoadLatest()
		switch {
		case err == nil:
			if err := trainer.DecodeState(payload); err != nil {
				return fail(err)
			}
			logger.Printf("resumed from checkpoint %d (%d iterations complete)", id, trainer.Iter())
		case errors.Is(err, checkpoint.ErrNoCheckpoint):
			logger.Printf("no checkpoint in %s; starting fresh", store.Dir())
		default:
			return fail(err)
		}
	}

	// save checkpoints the trainer and logs what that cost.
	save := func() error {
		//pbqpvet:ignore determinism checkpoint wall-clock is only ever formatted into a log line: the payload is EncodeState's, which reads no clock
		start := time.Now()
		payload, err := trainer.EncodeState()
		if err != nil {
			return err
		}
		encode := time.Since(start)
		if err := store.Save(trainer.Iter(), payload); err != nil {
			return err
		}
		logger.Printf("checkpoint %d: %d bytes, encode %.3fs, write %.3fs",
			trainer.Iter(), len(payload), encode.Seconds(), (time.Since(start) - encode).Seconds())
		return nil
	}

	for trainer.Iter() < *iters {
		stats, err := trainer.RunIteration(ctx)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				if err := save(); err != nil {
					return fail(err)
				}
				logger.Printf("interrupted during iteration %d; state checkpointed to %s — rerun with -resume", trainer.Iter()+1, store.Dir())
				return exitOK
			}
			// divergence or another unrecoverable error: do NOT
			// checkpoint the poisoned state
			return fail(err)
		}
		fmt.Fprintln(stdout, stats)
		if *ckptEvery > 0 && trainer.Iter()%*ckptEvery == 0 {
			if err := save(); err != nil {
				return fail(err)
			}
		}
	}
	if *ckptEvery > 0 && *iters%*ckptEvery != 0 {
		if err := save(); err != nil {
			return fail(err)
		}
	}

	data, err := trainer.Best().SaveBytes()
	if err != nil {
		return fail(err)
	}
	if err := checkpoint.WriteFileAtomic(*out, data); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "saved best network to %s\n", *out)
	return exitOK
}
