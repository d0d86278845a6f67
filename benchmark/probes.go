package main

// Layer probes: per-layer numbers that cannot be read off a workload's
// own replies are taken by timing calls into the layer's public
// functions on fixed inputs (the first pool program of a size class),
// so they compare across seeds and commits.

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"time"

	"pbqprl/internal/experiments"
	"pbqprl/internal/game"
	"pbqprl/internal/gcn"
	"pbqprl/internal/mcts"
	"pbqprl/internal/net"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/solve/liberty"
	"pbqprl/internal/tensor"
)

// playoutViews returns the frozen states along one complete, dead-end
// free game on the program (vregs, seed): the generator's hidden
// assignment is played in increasing-liberty order. Successive states
// share most of their rows, as the leaves of one search do.
func playoutViews(vregs int, seed int64) ([]gcn.View, error) {
	g, hidden, err := ateInstance(vregs, seed)
	if err != nil {
		return nil, err
	}
	order := game.MakeOrder(g, game.OrderIncLiberty, rand.New(rand.NewSource(1)))
	st := game.New(g, order)
	var views []gcn.View
	for t := 0; !st.Done() && !st.DeadEnd(); t++ {
		views = append(views, st.Snapshot())
		st.Play(hidden[order[t]])
	}
	return views, nil
}

// perView times each of fs over every view, reps times, and returns per
// f the mean time per view of its median rep. The fs run interleaved,
// view by view, so that whatever disturbs one (a collector cycle, a
// neighbour) disturbs them alike and their differences stay meaningful.
// reset runs before each rep, outside the clock, to drop whatever the
// previous rep memoized; nil when the timed calls memoize nothing.
func perView(views []gcn.View, reps int, reset func(), fs ...func(gcn.View)) []time.Duration {
	perRep := make([][]float64, len(fs))
	for r := 0; r < reps; r++ {
		if reset != nil {
			reset()
		}
		spent := make([]time.Duration, len(fs))
		for _, v := range views {
			for k, f := range fs {
				t0 := now()
				f(v)
				spent[k] += now().Sub(t0)
			}
		}
		for k := range fs {
			perRep[k] = append(perRep[k], float64(spent[k])/float64(len(views)))
		}
	}
	out := make([]time.Duration, len(fs))
	for k := range fs {
		out[k] = time.Duration(median(perRep[k]))
	}
	return out
}

// probeSolverLayers times the layers under an rl-bt solve and the
// liberty fallback.
func probeSolverLayers(pool [][]poolEntry, m metrics) error {
	const reps = 9
	pro3, pro6 := pool[2][0], pool[5][0]

	// tree bookkeeping alone: the uniform evaluator costs nothing
	g3, err := ateGraph(pro3.VRegs, pro3.Seed)
	if err != nil {
		return err
	}
	const sims = 5000
	order := game.MakeOrder(g3, game.OrderIncLiberty, rand.New(rand.NewSource(1)))
	search := timeMedian(reps, func() {
		mcts.New(mcts.Uniform{}, g3.M(), mcts.Config{}).Run(game.New(g3, order), sims)
	})
	m.set("mcts.sims_per_s", sims/search.Seconds(), "1/s")

	views, err := playoutViews(pro6.VRegs, pro6.Seed)
	if err != nil {
		return err
	}
	cfg := experiments.DefaultNetConfig()

	// the trainable scalar pass, which a clone-per-request evaluator
	// (this deployment, and pbqp-serve without -batch) runs per leaf
	n := net.New(cfg)
	layer := gcn.New(rand.New(rand.NewSource(cfg.Seed)), cfg.M, cfg.GCNLayers)
	scalar := perView(views, reps, nil,
		func(v gcn.View) { n.Evaluate(v) },
		func(v gcn.View) { layer.Forward(v) })
	m.set("net.evaluate_us", us(scalar[0]), "us")
	m.set("gcn.forward_us", us(scalar[1]), "us")
	m.set("net.torso_us", us(scalar[0]-scalar[1]), "us")

	// the read-only inference engine, which only a batching evaluator
	// reaches; each rep starts with its memo tables empty
	var sc gcn.Scratch
	prior := make(tensor.Vec, cfg.M)
	engine := perView(views, reps,
		func() { sc.InvalidateWeights(); n.SetTraining(false) },
		func(v gcn.View) { layer.Infer(v, &sc) },
		func(v gcn.View) { n.EvaluateInto(v, prior) })
	m.set("gcn.infer_us", us(engine[0]), "us")
	m.set("net.evaluate_into_us", us(engine[1]), "us")

	var states int64
	var spent time.Duration
	for _, entries := range pool {
		for _, e := range entries[:5] {
			g, err := ateGraph(e.VRegs, e.Seed)
			if err != nil {
				return err
			}
			t0 := now()
			res := liberty.Solver{MaxStates: screenStates}.SolveCtx(context.Background(), g)
			spent += now().Sub(t0)
			states += res.States
		}
	}
	m.set("liberty.states_per_s", float64(states)/spent.Seconds(), "1/s")
	return nil
}

// probeGraphIO times the parser, the serializer and the canonical hash
// on one request body.
func probeGraphIO(r *request, m metrics) error {
	const reps = 9
	mb := float64(len(r.body)) / 1e6
	var err error
	read := timeMedian(reps, func() {
		if _, e := pbqp.Read(bytes.NewReader(r.body)); e != nil {
			err = e
		}
	})
	write := timeMedian(reps, func() {
		if e := pbqp.Write(io.Discard, r.graph); e != nil {
			err = e
		}
	})
	hash := timeMedian(reps, func() {
		if _, e := pbqp.CanonicalHash(r.graph); e != nil {
			err = e
		}
	})
	m.set("pbqp.read_mb_per_s", mb/read.Seconds(), "MB/s")
	m.set("pbqp.write_mb_per_s", mb/write.Seconds(), "MB/s")
	m.set("pbqp.canonical_hash_us", us(hash), "us")
	return err
}

// probeTrainableNet times one gradient sample — forward, then backward
// — on the states of a mean-sized training program.
func probeTrainableNet(m metrics) error {
	const reps = 9
	views, err := playoutViews(50, 1)
	if err != nil {
		return err
	}
	cfg := experiments.DefaultNetConfig()
	n := net.New(cfg)
	n.SetTraining(true)
	dLogits := make(tensor.Vec, cfg.M)
	for i := range dLogits {
		dLogits[i] = 1 / float64(cfg.M)
	}
	step := perView(views, reps, nil,
		func(v gcn.View) { n.Forward(v) },
		func(gcn.View) { n.Backward(dLogits, 1) })
	m.set("net.forward_train_us", us(step[0]), "us")
	m.set("net.backward_us", us(step[1]), "us")
	return nil
}
