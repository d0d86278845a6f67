// Command pbqp-coord runs distributed self-play training: it owns the
// trainer (networks, optimizer, replay queue, RNG stream, checkpoints)
// and serves the episode phase of every iteration to pbqp-train
// -worker processes as seed-range leases over HTTP.
//
// Usage:
//
//	pbqp-coord [-addr :8090] [-iters N] [-episodes N] [-ktrain N] [-regime ate|er]
//	           [-seed S] [-mean-n N] [-out net.gob] [-resume]
//	           [-checkpoint-dir DIR] [-checkpoint-every N] [-checkpoint-keep K]
//	           [-lease-episodes N] [-lease-ttl 10s] [-drain-timeout 30s] [-workers N]
//
// Endpoints:
//
//	POST /v1/lease/claim      claim an episode lease (fingerprint handshake)
//	POST /v1/lease/heartbeat  keep a claimed lease alive
//	POST /v1/lease/complete   submit a lease's trajectories
//	GET  /metrics             lease/heartbeat/reassignment metrics (JSON)
//	GET  /healthz             liveness
//	GET  /readyz              readiness (503 once draining)
//
// Leases expire after -lease-ttl without a heartbeat and are handed to
// the next claimant under a fresh epoch; late results from the old
// epoch are discarded. Results are merged in episode order, so the
// trained networks are bit-identical to `pbqp-train -workers 1` with
// the same training flags — no matter how many workers connect, crash,
// or get SIGKILLed mid-lease.
//
// Checkpointing, resume, and signal handling match pbqp-train: first
// SIGINT/SIGTERM checkpoints and exits cleanly, a second forces
// immediate exit 1. Training flags must match across coordinator and
// workers (the claim handshake verifies a fingerprint); gradient steps
// and arena games run locally on -workers goroutines, which like the
// remote workers' number never changes a trained byte.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"pbqprl/internal/checkpoint"
	"pbqprl/internal/dist"
	"pbqprl/internal/experiments"
	"pbqprl/internal/net"
	"pbqprl/internal/selfplay"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address for the lease API")
	iters := flag.Int("iters", 5, "training iterations (paper: 200)")
	episodes := flag.Int("episodes", 20, "episodes per iteration (paper: 100)")
	ktrain := flag.Int("ktrain", 50, "MCTS simulations per move (paper: 50 or 100)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "local goroutines for gradient steps and arena games (episodes run on remote workers)")
	regime := flag.String("regime", "ate", "training distribution: ate (zero/inf) or er (Erdős–Rényi, p_inf=1%)")
	out := flag.String("out", "pbqp-net.gob", "best-network output path")
	seed := flag.Int64("seed", 1, "training seed")
	meanN := flag.Float64("mean-n", 36, "mean graph size (paper: 100)")
	ckptDir := flag.String("checkpoint-dir", "", "checkpoint directory (default: <out>.ckpts)")
	ckptEvery := flag.Int("checkpoint-every", 1, "checkpoint every N completed iterations (0 disables periodic checkpoints)")
	ckptKeep := flag.Int("checkpoint-keep", 3, "checkpoints retained on disk")
	resume := flag.Bool("resume", false, "resume from the newest valid checkpoint in -checkpoint-dir")
	leaseEpisodes := flag.Int("lease-episodes", 4, "episodes per lease")
	leaseTTL := flag.Duration("lease-ttl", 10*time.Second, "lease heartbeat TTL; an unheartbeaten lease is reassigned after this")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown may wait for in-flight lease requests")
	flag.Parse()
	log.SetPrefix("pbqp-coord: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)

	spec := dist.Spec{
		Episodes: *episodes,
		KTrain:   *ktrain,
		Regime:   *regime,
		MeanN:    *meanN,
		Seed:     *seed,
		Net:      experiments.DefaultNetConfig(),
	}
	cfg, err := spec.SelfplayConfig()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pbqp-coord: %v\n", err)
		os.Exit(2)
	}

	coord := dist.NewCoordinator(dist.CoordinatorConfig{
		Spec:          spec,
		LeaseEpisodes: *leaseEpisodes,
		LeaseTTL:      *leaseTTL,
		Logf:          log.Printf,
	})

	cfg.Workers = *workers
	cfg.Episodes = coord.RunEpisodes
	cfg.Logf = log.Printf
	trainer, err := selfplay.NewTrainer(net.New(spec.Net), cfg)
	if err != nil {
		log.Fatal(err)
	}

	if *ckptDir == "" {
		*ckptDir = *out + ".ckpts"
	}
	store, err := checkpoint.NewStore(*ckptDir, *ckptKeep)
	if err != nil {
		log.Fatal(err)
	}
	store.Logf = log.Printf

	if *resume {
		id, payload, err := store.LoadLatest()
		switch {
		case err == nil:
			if err := trainer.DecodeState(payload); err != nil {
				log.Fatal(err)
			}
			log.Printf("resumed from checkpoint %d (%d iterations complete)", id, trainer.Iter())
		case errors.Is(err, checkpoint.ErrNoCheckpoint):
			log.Printf("no checkpoint in %s; starting fresh", store.Dir())
		default:
			log.Fatal(err)
		}
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           coord.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	//pbqpvet:daemon serves the lease API until Shutdown below; ListenAndServe has no join handle
	go func() {
		log.Printf("lease API on %s, fingerprint %q", *addr, spec.Fingerprint())
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()

	// First signal: cancel training, commit the contiguous episode
	// prefix, checkpoint, drain, exit 0. Second signal: exit 1 now.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		cancel()
		<-sigc
		log.Printf("second signal: forcing immediate exit")
		os.Exit(1)
	}()

	save := func() {
		payload, err := trainer.EncodeState()
		if err != nil {
			log.Fatal(err)
		}
		if err := store.Save(trainer.Iter(), payload); err != nil {
			log.Fatal(err)
		}
	}

	interrupted := false
	for trainer.Iter() < *iters {
		stats, err := trainer.RunIteration(ctx)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				save()
				log.Printf("interrupted during iteration %d; state checkpointed to %s — rerun with -resume", trainer.Iter()+1, store.Dir())
				interrupted = true
				break
			}
			log.Fatal(err)
		}
		fmt.Println(stats)
		if *ckptEvery > 0 && trainer.Iter()%*ckptEvery == 0 {
			save()
		}
	}
	if !interrupted {
		if *ckptEvery > 0 && *iters%*ckptEvery != 0 {
			save()
		}
		data, err := trainer.Best().SaveBytes()
		if err != nil {
			log.Fatal(err)
		}
		if err := checkpoint.WriteFileAtomic(*out, data); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("saved best network to %s\n", *out)
	}

	// Shutdown: stop admitting lease traffic (workers see readyz flip
	// and 503s), finish in-flight handlers, then close the listener
	// under its own short budget.
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancelDrain()
	if err := coord.Drain(drainCtx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelShutdown()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
}
