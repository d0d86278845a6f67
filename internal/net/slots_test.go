package net

import (
	"fmt"
	"math/rand"
	"testing"

	"pbqprl/internal/ate"
	"pbqprl/internal/cost"
	"pbqprl/internal/game"
	"pbqprl/internal/gcn"
	"pbqprl/internal/tensor"
)

// The tests below go after gcn.Infer's per-vertex slots where they can
// go stale. A slot answers for a vertex without looking at anything but
// the ids of the rows around it, so every way those ids, the rows
// behind them or the table's owner can change between two evaluations
// of one game gets a walk: every evaluation is compared, bit for bit,
// with the trainable pass on a clone that shares nothing with the
// engine under test.

// ateGame is a game on the ATE program PRO<k> in increasing-liberty
// order, the order pbqp-serve plays.
func ateGame(k int) *game.State {
	g := ate.Suite()[k-1].Graph
	return game.New(g, game.MakeOrder(g, game.OrderIncLiberty, nil))
}

// randomStep moves st one random step: back with probability 1/3 and
// whenever it cannot go on, else forward by a random legal color.
func randomStep(st *game.State, rng *rand.Rand) {
	var legal []int
	if !st.Done() && !st.DeadEnd() {
		for c := 0; c < st.M(); c++ {
			if st.Legal(c) {
				legal = append(legal, c)
			}
		}
	}
	if st.Turn() > 0 && (len(legal) == 0 || rng.Intn(3) == 0) {
		st.Undo()
	} else if len(legal) > 0 {
		st.Play(legal[rng.Intn(len(legal))])
	}
}

// walk takes steps random steps, round-robin over games, and after each
// evaluates the moved game's window view on every net in turn.
func walk(t *testing.T, what string, steps int, seed int64, games []*game.State, nets ...*PBQPNet) {
	t.Helper()
	refs := make([]*PBQPNet, len(nets))
	for i, p := range nets {
		refs[i] = p.Clone()
	}
	rng := rand.New(rand.NewSource(seed))
	prior := make(tensor.Vec, nets[0].cfg.M)
	for step := 0; step < steps; step++ {
		gi := step % len(games)
		st := games[gi]
		randomStep(st, rng)
		if st.Done() {
			continue
		}
		for ni, p := range nets {
			wantPrior, wantValue := scalarEvaluate(refs[ni], st.View())
			value := p.EvaluateInto(st.View(), prior)
			sameBits(t, fmt.Sprintf("%s: step %d, game %d at turn %d, net %d", what, step, gi, st.Turn(), ni),
				prior, wantPrior, value, wantValue)
		}
	}
}

func slotNet(layers int, seed int64) *PBQPNet {
	return New(Config{M: 13, GCNLayers: layers, Hidden: 16, Blocks: 1, Seed: seed})
}

// TestSlotsRandomWalk: one game, one net, 2 000 Play/Undo steps, with
// one message round and with three (a changed vector then reaches the
// slots of vertices three edges away).
func TestSlotsRandomWalk(t *testing.T) {
	for _, layers := range []int{1, 3} {
		walk(t, fmt.Sprintf("%d layers", layers), 2000, 140, []*game.State{ateGame(1)}, slotNet(layers, 141))
	}
}

// TestSlotsTwoGamesOneNet: two games interleaved on one net each keep
// their own slots while sharing its maps and its row ids.
func TestSlotsTwoGamesOneNet(t *testing.T) {
	walk(t, "two games", 1200, 142, []*game.State{ateGame(1), ateGame(2)}, slotNet(2, 143))
}

// TestSlotsTwoNetsOneGame: two nets evaluating one game in turn take
// its table from each other at every evaluation, and a slot filled
// under the other net's row ids must never answer.
func TestSlotsTwoNetsOneGame(t *testing.T) {
	walk(t, "two nets", 600, 144, []*game.State{ateGame(1)}, slotNet(2, 145), slotNet(2, 146))
}

// TestSlotsEvictedMaps: with every memo map bounded at a few entries
// each of them is dropped many times mid-walk; slots filled before an
// eviction keep answering after it, from rows the maps no longer hold.
func TestSlotsEvictedMaps(t *testing.T) {
	for _, limit := range []int{1, 7, 60} {
		p := slotNet(2, 147)
		p.eng.gsc.LimitMemosForTest(limit)
		walk(t, fmt.Sprintf("memo limit %d", limit), 500, 148, []*game.State{ateGame(1)}, p)
	}
}

// thaw rebuilds view over a table of its own the way selfplay's
// thawSample does (which this package cannot import).
func thaw(view gcn.View) gcn.View {
	src, off := view.EdgeTable()
	tbl := &gcn.EdgeTable{Start: []int32{0}}
	var vecs []cost.Vector
	for i := 0; i < view.N(); i++ {
		vecs = append(vecs, view.Vec(i))
		for _, j := range src.WindowNbrs(off+i, off) {
			tbl.AddEdge(j, gcn.Pack(src.MatOf(off+i, off+j)))
		}
		tbl.Start = append(tbl.Start, int32(len(tbl.Nbr)))
	}
	return gcn.NewView(tbl, 0, view.M(), vecs).Freeze()
}

// TestOneScratchEveryKindOfView: a live game, snapshots of it from
// earlier turns, a thawed copy of one of them and a second game's live
// view of the same graph share one engine, whose two maps are bounded
// at 16 entries and so evicted many times over, in random interleaving
// across a Play/Undo walk. The snapshots and the live table hold the
// same kernels (one row memo serves both), the thawed copy kernels of
// its own over the same matrices, and only the two games' live views
// take slots.
func TestOneScratchEveryKindOfView(t *testing.T) {
	p := slotNet(2, 155)
	p.eng.gsc.LimitMemosForTest(16)
	ref := p.Clone()
	st := ateGame(1)
	g := ate.Suite()[0].Graph
	views := []gcn.View{game.New(g, game.MakeOrder(g, game.OrderFixed, nil)).View()}
	names := []string{"second game's view"}
	rng := rand.New(rand.NewSource(156))
	prior := make(tensor.Vec, 13)
	for step := 0; step < 1500; step++ {
		randomStep(st, rng)
		if st.Done() {
			continue
		}
		if step%100 == 0 {
			snap := st.Snapshot()
			views, names = append(views, snap), append(names, fmt.Sprintf("snapshot of turn %d", st.Turn()))
			if step == 300 {
				views, names = append(views, thaw(snap)), append(names, fmt.Sprintf("thawed snapshot of turn %d", st.Turn()))
			}
		}
		view, name := st.View(), "live view"
		if k := rng.Intn(2 * len(views)); k < len(views) {
			view, name = views[k], names[k]
		}
		wantPrior, wantValue := scalarEvaluate(ref, view)
		value := p.EvaluateInto(view, prior)
		sameBits(t, fmt.Sprintf("step %d, game at turn %d, %s", step, st.Turn(), name), prior, wantPrior, value, wantValue)
	}
	if len(views) < 10 {
		t.Fatalf("the walk took only %d views beside the live one", len(views))
	}
}

// TestSlotsAfterWeightChange: the same state, evaluated before and
// after each way a net's weights change under a game's warm slots.
func TestSlotsAfterWeightChange(t *testing.T) {
	p, q := slotNet(2, 149), slotNet(2, 150)
	st := ateGame(1)
	rng := rand.New(rand.NewSource(151))
	prior := make(tensor.Vec, 13)
	check := func(what string) {
		t.Helper()
		for i := 0; i < 5; i++ { // move a little so that most slots, not all, are asked unchanged
			randomStep(st, rng)
		}
		for st.Done() {
			st.Undo()
		}
		wantPrior, wantValue := scalarEvaluate(p.Clone(), st.View())
		value := p.EvaluateInto(st.View(), prior)
		sameBits(t, what, prior, wantPrior, value, wantValue)
	}
	check("fresh")
	p.CopyFrom(q)
	check("after CopyFrom")
	data, err := slotNet(2, 152).SaveBytes()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.LoadBytes(data); err != nil {
		t.Fatal(err)
	}
	check("after LoadBytes")
	p.SetTraining(true)
	for _, param := range p.Params() { // what an optimizer step does
		for i := range param.W {
			param.W[i] += 0.01 * rng.NormFloat64()
		}
	}
	p.SetTraining(false)
	check("after a training bracket")
}

// TestEvaluateIntoUnchangedWindowAllocFree: re-evaluating a game's
// window view that has not changed is answered from the slots and
// allocates nothing.
func TestEvaluateIntoUnchangedWindowAllocFree(t *testing.T) {
	p := slotNet(3, 153)
	st := ateGame(1)
	randomStep(st, rand.New(rand.NewSource(154))) // off the initial state: the window starts at 1
	view := st.View()
	prior := make(tensor.Vec, 13)
	p.EvaluateInto(view, prior)
	if n := testing.AllocsPerRun(50, func() { p.EvaluateInto(view, prior) }); n != 0 {
		t.Fatalf("EvaluateInto on an unchanged window view allocates %.1f times per run", n)
	}
}
