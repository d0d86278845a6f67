package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pbqprl/internal/ate"
	"pbqprl/internal/experiments"
	"pbqprl/internal/game"
	"pbqprl/internal/net"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/randgraph"
	"pbqprl/internal/selfplay"
)

// trainMasterSeed seeds the trainer's master stream, and through it
// every episode's seed, for every -seed. Episode cost grows roughly
// with the square of the program size, so letting -seed redraw the 128
// sizes moves the wall time by ±7 % before any code changes; the size
// sequence is therefore fixed and -seed picks the programs of those
// sizes (see generate).
const trainMasterSeed = 1

// train is one fixed training job: self-play, gradient steps and the
// arena gate, on the ATE training distribution of internal/experiments.
type train struct {
	seed     int64
	iters    int
	episodes int

	trainer  *selfplay.Trainer
	checkErr error // outcome of the set-up determinism cross-check

	timed              bool // time generate; only in traced passes
	genCalls, genNanos atomic.Int64
	buildNanos         atomic.Int64
}

func (w *train) work() map[string]int {
	return map[string]int{"iterations": w.iters, "episodes_per_iteration": w.episodes,
		"k_train": 25, "selfplay_workers": benchProcs}
}

// config is the training configuration. Everything but the counts is
// what internal/experiments trains its networks with.
func (w *train) config(episodes, workers int) selfplay.Config {
	return selfplay.Config{
		EpisodesPerIter: episodes,
		KTrain:          25,
		ReplayCap:       20_000,
		BatchSize:       32,
		TrainSteps:      64,
		ArenaGames:      8,
		ArenaWins:       2,
		PromoteOnTie:    true,
		Order:           game.OrderDecLiberty,
		Workers:         workers,
		Generate:        w.generate,
		Seed:            trainMasterSeed,
	}
}

// generate samples the ATE training distribution: program sizes
// NormalN(50, 16, 20) from the episode's stream, program contents from
// that stream crossed with -seed.
func (w *train) generate(rng *rand.Rand) *pbqp.Graph {
	var t0 time.Time
	if w.timed {
		t0 = now()
	}
	n := randgraph.NormalN(rng, 50, 16, 20)
	prog, _ := ate.Generate(ate.DefaultMachine(), ate.GenConfig{
		Name:      "train",
		NumVRegs:  n,
		PairRatio: 0.3,
		HardRatio: 0.4,
		MaxLive:   8,
		Seed:      rng.Int63() ^ (w.seed * 0x9e3779b97f4a7c1),
	})
	var t1 time.Time
	if w.timed {
		t1 = now()
	}
	g, err := ate.BuildPBQP(prog)
	if err != nil {
		// generated programs are valid by construction; RunEpisode
		// recovers this into a skipped episode, which fails the run
		panic("benchmark: training program invalid: " + err.Error())
	}
	if w.timed {
		end := now()
		w.genCalls.Add(1)
		w.genNanos.Add(end.Sub(t0).Nanoseconds())
		w.buildNanos.Add(end.Sub(t1).Nanoseconds())
	}
	return g
}

func (w *train) newTrainer(cfg selfplay.Config) (*selfplay.Trainer, error) {
	return selfplay.NewTrainer(net.New(experiments.DefaultNetConfig()), cfg)
}

// netDigest runs a short job — four episodes, four gradient steps, two
// arena games: every phase that fans out over the worker pool — and
// returns the SHA-256 of the trained network.
func (w *train) netDigest(workers int) ([sha256.Size]byte, error) {
	cfg := w.config(4, workers)
	cfg.TrainSteps, cfg.ArenaGames, cfg.ArenaWins = 4, 2, 1
	t, err := w.newTrainer(cfg)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	if _, err := t.RunIteration(context.Background()); err != nil {
		return [sha256.Size]byte{}, err
	}
	data, err := t.Current().SaveBytes()
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	return sha256.Sum256(data), nil
}

// setUp builds the trainer and, untraced, cross-checks the property the
// parallel episode pool exists to keep: one worker and two train the
// same bytes. The traced pass reuses the untraced pass's verdict.
func (w *train) setUp(tr *tracer) error {
	w.timed = false
	if tr == nil {
		one, err := w.netDigest(1)
		if err != nil {
			return err
		}
		two, err := w.netDigest(benchProcs)
		if err != nil {
			return err
		}
		w.checkErr = nil
		if one != two {
			w.checkErr = fmt.Errorf("1 worker trains network %x, %d workers train %x", one[:6], benchProcs, two[:6])
		}
	}
	cfg := w.config(w.episodes, benchProcs)
	if tr != nil {
		w.timed = true
		w.genCalls.Store(0)
		w.genNanos.Store(0)
		w.buildNanos.Store(0)
		cfg.Episodes = w.tracedEpisodes(tr, cfg)
	}
	var err error
	w.trainer, err = w.newTrainer(cfg)
	return err
}

func (w *train) tearDown() { w.trainer = nil }

func iterationID(i int) string { return "iteration-" + strconv.Itoa(i) }

// tracedEpisodes is an episode backend that plays each batch exactly as
// the trainer's own pool would — selfplay.RunEpisode on per-worker
// clones, merged in episode order — and records the phase as a span.
func (w *train) tracedEpisodes(tr *tracer, cfg selfplay.Config) selfplay.EpisodeBackend {
	return func(_ context.Context, batch selfplay.EpisodeBatch) ([]selfplay.EpisodeResult, error) {
		start := now()
		out := playBatch(cfg, batch, benchProcs)
		tr.add("selfplay.episode_phase", iterationID(batch.Iteration), "train.iteration", start, now())
		return out, nil
	}
}

// playBatch plays a batch's episodes on workers goroutines.
func playBatch(cfg selfplay.Config, batch selfplay.EpisodeBatch, workers int) []selfplay.EpisodeResult {
	out := make([]selfplay.EpisodeResult, len(batch.Seeds))
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		cur, best := batch.Cur.Clone(), batch.Best.Clone()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(out) {
					return
				}
				out[i] = selfplay.RunEpisode(cfg, cur, best, batch.Seeds[i])
			}
		}()
	}
	wg.Wait()
	return out
}

func (w *train) measure(tr *tracer) (*pass, error) {
	p := &pass{attempted: w.iters*w.episodes + 1}
	if w.checkErr != nil {
		p.fail("determinism cross-check: " + w.checkErr.Error())
	}
	begin := now()
	for i := 1; i <= w.iters; i++ {
		start := now()
		stats, err := w.trainer.RunIteration(context.Background())
		end := now()
		if err != nil {
			return nil, err // divergence poisons the trainer: there is nothing left to measure
		}
		p.calls = append(p.calls, end.Sub(start))
		tr.add("train.iteration", iterationID(i), "", start, end)
		for s := 0; s < stats.Skipped; s++ {
			p.fail(fmt.Sprintf("iteration %d skipped an episode", i))
		}
	}
	p.throughput = float64(w.iters*w.episodes) / now().Sub(begin).Seconds()
	return p, nil
}

func (w *train) layers(tr *tracer, m metrics) error {
	phase := tr.total("selfplay.episode_phase")
	m.set("selfplay.episode_phase_s", phase.Seconds(), "s")
	m.set("selfplay.gradient_arena_s", tr.selfTimes()["train.iteration"].Seconds(), "s")
	m.set("selfplay.episodes_per_s", ratio(float64(w.iters*w.episodes), phase.Seconds()), "1/s")
	calls := float64(w.genCalls.Load())
	m.set("selfplay.generate_ms", ratio(ms(time.Duration(w.genNanos.Load())), calls), "ms")
	m.set("ate.build_pbqp_ms", ratio(ms(time.Duration(w.buildNanos.Load())), calls), "ms")

	// the same episodes on one worker and on two
	w.timed = false
	batch := selfplay.EpisodeBatch{Cur: w.trainer.Current(), Best: w.trainer.Best()}
	for s := int64(1); s <= 16 && s <= int64(w.episodes); s++ {
		batch.Seeds = append(batch.Seeds, s)
	}
	cfg := w.config(w.episodes, benchProcs)
	t0 := now()
	playBatch(cfg, batch, 1)
	t1 := now()
	playBatch(cfg, batch, benchProcs)
	m.set("selfplay.worker_speedup", ratio(float64(t1.Sub(t0)), float64(now().Sub(t1))), "ratio")
	return probeTrainableNet(m)
}
