// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V) at laptop scale: the Figure 6 node counts, the
// Section V-B success/search-space/ablation numbers, and the Section
// V-C LLVM-style cost-sum and speedup comparisons. See DESIGN.md's
// per-experiment index (E1–E9) for the mapping.
package experiments

import (
	"context"
	"math/rand"
	"os"
	"runtime"
	"sync"

	"pbqprl/internal/ate"
	"pbqprl/internal/game"
	"pbqprl/internal/net"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/randgraph"
	"pbqprl/internal/selfplay"
)

// TrainSpec identifies a trained network. The paper trains with MCTS
// budget k_train on 20,000 random graphs over two weeks of GPU time;
// the laptop-scale defaults train the same pipeline on the same graph
// family at a small fraction of that cost. Each process trains a spec
// at most once (TrainedNet).
type TrainSpec struct {
	// KTrain is the self-play MCTS budget (the paper's k_train).
	KTrain int
	// Iterations and Episodes size the run (paper: 200 × 100).
	Iterations int
	Episodes   int
	// Seed fixes the whole training run.
	Seed int64
}

// DefaultNetConfig is the laptop-scale network: m = 13 (the ATE
// register count, and equally the compiler target's 12 registers +
// spill), one GCN message round (h⁰, then one layer), a compact torso.
func DefaultNetConfig() net.Config {
	return net.Config{M: 13, GCNLayers: 1, Hidden: 24, Blocks: 1, Seed: 7}
}

// ateTrainingGraph samples the training distribution: PBQP graphs
// derived from random synthetic ATE programs — the same pairing,
// interference and major-cycle structure the evaluation programs have.
// (The paper trains on random PBQP graphs of mean size 100; we train
// in-distribution at smaller sizes to keep self-play affordable, which
// matters much more at laptop scale than it does after two GPU-weeks.)
func ateTrainingGraph(rng *rand.Rand) *pbqp.Graph {
	n := randgraph.NormalN(rng, 50, 16, 20)
	prog, _ := ate.Generate(ate.DefaultMachine(), ate.GenConfig{
		Name:      "train",
		NumVRegs:  n,
		PairRatio: 0.3,
		HardRatio: 0.4,
		MaxLive:   8,
		Seed:      rng.Int63(),
	})
	g, err := ate.BuildPBQP(prog)
	if err != nil {
		// An experiment harness aborts rather than publish figures from
		// a broken training setup.
		panic("experiments: training program invalid: " + err.Error())
	}
	return g
}

type cacheKey struct {
	spec TrainSpec
	tag  string
}

// netCache holds the finished networks. netCacheMu guards map access
// only: it is never held across a training run.
var (
	netCacheMu sync.Mutex
	netCache   = map[cacheKey]*net.PBQPNet{}
)

// TrainedNet returns the ATE-regime network for spec, training it on
// first use in this process and returning the same network after that.
// Nothing is read from or written to disk, so every table comes from
// the training code it is built with. Progress lines of a training run
// go to progress when non-nil.
func TrainedNet(spec TrainSpec, progress func(string)) *net.PBQPNet {
	return trainedNetWith(spec, ateTrainingGraph, game.OrderDecLiberty, "ate", progress)
}

// trainedNetWith trains (or recalls) a network for the given training
// graph distribution and coloring order, keyed by (spec, tag).
func trainedNetWith(spec TrainSpec, gen func(*rand.Rand) *pbqp.Graph, order game.Order, tag string, progress func(string)) *net.PBQPNet {
	key := cacheKey{spec: spec, tag: tag}
	netCacheMu.Lock()
	n, ok := netCache[key]
	netCacheMu.Unlock()
	if ok {
		return n
	}
	// Callers ask for one spec at a time; two at once would both build
	// it, to the same weights.
	n = buildNet(spec, gen, order, progress)
	netCacheMu.Lock()
	netCache[key] = n
	netCacheMu.Unlock()
	return n
}

// buildNet trains the network for spec from scratch. Callers hold no
// lock: training must not serialize unrelated cache lookups.
func buildNet(spec TrainSpec, gen func(*rand.Rand) *pbqp.Graph, order game.Order, progress func(string)) *net.PBQPNet {
	n := net.New(DefaultNetConfig())
	trainer := selfplay.New(n, selfplay.Config{
		EpisodesPerIter: spec.Episodes,
		KTrain:          spec.KTrain,
		ReplayCap:       20_000,
		BatchSize:       32,
		TrainSteps:      2 * spec.Episodes,
		// parallel episodes; the worker count does not affect the
		// trained network, so the tables are the same on every core
		// count
		Workers: runtime.GOMAXPROCS(0),
		// Laptop-scale promotion gate: the paper keeps the candidate
		// when it wins > 5 of 10 arena games; at our tiny episode
		// counts (and in the tie-heavy zero/∞ regime) that gate
		// almost never opens and every iteration's learning would be
		// discarded, so the candidate is kept when it wins > 2 of 8.
		ArenaGames:   8,
		ArenaWins:    2,
		PromoteOnTie: true,
		Order:        order,
		Generate:     gen,
		Seed:         spec.Seed,
	})
	for i := 0; i < spec.Iterations; i++ {
		stats, err := trainer.RunIteration(context.Background())
		if err != nil {
			panic("experiments: training failed: " + err.Error())
		}
		if progress != nil {
			progress(stats.String())
		}
	}
	return trainer.Best()
}

// LoadNet loads a checkpoint with the default architecture from path,
// returning nil if the file is missing or incompatible.
func LoadNet(path string) *net.PBQPNet {
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()
	n := net.New(DefaultNetConfig())
	if err := n.Load(f); err != nil {
		return nil
	}
	return n
}

// SpecK50 and SpecK100 are the two training budgets of Section V-B,
// scaled to laptop time.
func SpecK50() TrainSpec  { return TrainSpec{KTrain: 50, Iterations: 6, Episodes: 20, Seed: 13} }
func SpecK100() TrainSpec { return TrainSpec{KTrain: 100, Iterations: 6, Episodes: 20, Seed: 14} }
