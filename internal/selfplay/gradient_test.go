// The gradient step's worker count must be as invisible as the episode
// pool's: GradientStep runs a minibatch on Config.Workers goroutines,
// and every byte a run leaves behind — weights, Adam moments, replay,
// RNG position — must not depend on how many. CI runs this package
// under -race, so these tests are also the data-race check for the
// hand-offs between the step's caller and its helpers.
package selfplay

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pbqprl/internal/game"
	"pbqprl/internal/net"
	"pbqprl/internal/nn"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/randgraph"
)

// gradientTrainer trains a 13-colour network, the row count of the
// paper's GCN matrices, on minibatches of batch samples.
func gradientTrainer(t *testing.T, workers, batch int) *Trainer {
	t.Helper()
	const m = 13
	n := net.New(net.Config{M: m, GCNLayers: 2, Hidden: 8, Blocks: 1, Seed: 41})
	return New(n, Config{
		EpisodesPerIter: 4,
		KTrain:          4,
		ReplayCap:       500,
		BatchSize:       batch,
		TrainSteps:      3,
		ArenaGames:      2,
		ArenaWins:       1,
		Workers:         workers,
		Order:           game.OrderFixed,
		Seed:            41,
		Generate: func(rng *rand.Rand) *pbqp.Graph {
			return randgraph.ErdosRenyi(rng, randgraph.Config{
				N: 6 + rng.Intn(4), M: m, PEdge: 0.4, PInf: 0.05,
			})
		},
	})
}

// gradientWorkers are the counts every case is held equal over: inline,
// counts that divide a minibatch of 24 and do not, and more workers than
// any minibatch here has samples, on a machine with fewer cores than
// most of them.
var gradientWorkers = []int{1, 2, 3, 5, 16, 40}

// sameEverywhere runs one trainer per worker count through run and
// compares network and trainer state with the first's.
func sameEverywhere(t *testing.T, batch int, run func(t *testing.T, tr *Trainer)) {
	t.Helper()
	var wantNet, wantState []byte
	for _, workers := range gradientWorkers {
		tr := gradientTrainer(t, workers, batch)
		run(t, tr)
		gotNet, gotState := netBytes(t, tr.Current()), encodeBytes(t, tr)
		if wantNet == nil {
			wantNet, wantState = gotNet, gotState
			continue
		}
		if !bytes.Equal(gotNet, wantNet) {
			t.Errorf("workers=%d: SaveBytes differ from workers=%d", workers, gradientWorkers[0])
		}
		if !bytes.Equal(gotState, wantState) {
			t.Errorf("workers=%d: EncodeState differs from workers=%d", workers, gradientWorkers[0])
		}
	}
}

// episodeSamples plays episodes of tr's configuration until it has at
// least n labelled samples.
func episodeSamples(t *testing.T, tr *Trainer, n int) []Sample {
	t.Helper()
	var out []Sample
	for seed := int64(1); len(out) < n; seed++ {
		res := RunEpisode(tr.cfg, tr.cur, tr.best, seed)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		for i := range res.Samples {
			res.Samples[i].Z = res.Z
		}
		out = append(out, res.Samples...)
	}
	return out
}

func trainOnce(t *testing.T, tr *Trainer) {
	t.Helper()
	if _, err := tr.train(); err != nil {
		t.Fatal(err)
	}
}

func TestGradientStepWorkerCountInvariant(t *testing.T) {
	t.Run("two iterations", func(t *testing.T) {
		sameEverywhere(t, 24, func(t *testing.T, tr *Trainer) { runIters(t, tr, 2) })
	})
	t.Run("batch of one", func(t *testing.T) {
		sameEverywhere(t, 1, func(t *testing.T, tr *Trainer) { runIters(t, tr, 2) })
	})
	// every slot of every minibatch holds the same view, which the
	// embedding goroutines read at once
	t.Run("replay of one sample", func(t *testing.T) {
		sameEverywhere(t, 24, func(t *testing.T, tr *Trainer) {
			tr.enqueue(episodeSamples(t, tr, 1)[:1])
			trainOnce(t, tr)
		})
	})
	// windows onto live games' tables beside samples that crossed the
	// wire and own a small table each
	t.Run("live and thawed samples", func(t *testing.T) {
		sameEverywhere(t, 24, func(t *testing.T, tr *Trainer) {
			live := episodeSamples(t, tr, 30)
			wire, err := EncodeSamples(live)
			if err != nil {
				t.Fatal(err)
			}
			thawed, err := DecodeSamples(wire)
			if err != nil {
				t.Fatal(err)
			}
			for i := range live {
				if i%2 == 1 {
					live[i] = thawed[i]
				}
			}
			tr.enqueue(live)
			trainOnce(t, tr)
		})
	})
}

// forwardBackwardLoop is the minibatch as train ran it before
// GradientStep: one sample at a time through the net's own slot.
func forwardBackwardLoop(n *net.PBQPNet, batch []Sample, loss float64) float64 {
	for _, s := range batch {
		logits, v := n.Forward(s.View)
		mask := net.Mask(s.View)
		p := nn.Softmax(logits, mask)
		loss += nn.CrossEntropy(p, s.Pi) + nn.MSE(v, s.Z)
		dLogits := nn.CrossEntropyGrad(p, s.Pi, mask)
		dLogits.Scale(1 / float64(len(batch)))
		n.Backward(dLogits, nn.MSEGrad(v, s.Z)/float64(len(batch)))
	}
	return loss
}

// TestGradientStepIsForwardBackwardLoop holds GradientStep, at every
// worker count and wave width, to the loop it replaced: Forward, loss
// and Backward per sample on the net's own slot.
func TestGradientStepIsForwardBackwardLoop(t *testing.T) {
	tr := gradientTrainer(t, 1, 24)
	batch := episodeSamples(t, tr, 24)[:24]
	gradients := func(n *net.PBQPNet) []byte {
		var buf bytes.Buffer
		for _, p := range n.Params() {
			fmt.Fprintf(&buf, "%x", p.G)
		}
		return buf.Bytes()
	}
	ref := tr.cur.Clone()
	ref.SetTraining(true)
	wantLoss := forwardBackwardLoop(ref, batch, 0.5)
	want := gradients(ref)
	for _, workers := range gradientWorkers {
		// StepSlots' two widths, a last wave shorter than the others,
		// waves narrower than the pool and slots to spare
		for _, width := range []int{1, 24, 5, 2, 40} {
			n := tr.cur.Clone()
			n.SetTraining(true)
			got := GradientStep(n, workers, make([]net.Slot, width), batch, 0.5)
			if got != wantLoss {
				t.Errorf("workers=%d slots=%d: loss %v, the loop's %v", workers, width, got, wantLoss)
			}
			if !bytes.Equal(gradients(n), want) {
				t.Errorf("workers=%d slots=%d: gradients differ from the Forward/Backward loop's", workers, width)
			}
		}
	}
}

// TestPhaseTimesAreLoggedNotStored: an iteration reports the wall-clock
// of its phases through Config.Logf, and nothing of it reaches the
// checkpoint.
func TestPhaseTimesAreLoggedNotStored(t *testing.T) {
	silent, logged := gradientTrainer(t, 2, 8), gradientTrainer(t, 2, 8)
	var lines []string
	logged.cfg.Logf = func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	for i := 1; i <= 2; i++ {
		for _, tr := range []*Trainer{silent, logged} {
			if _, err := tr.RunIteration(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		if len(lines) != i {
			t.Fatalf("after iteration %d: %d log lines %q, want one per iteration", i, len(lines), lines)
		}
		line := lines[i-1]
		for _, want := range []string{"phases: ", "episodes ", "gradient steps ", "samples/s", "arena "} {
			if !strings.Contains(line, want) {
				t.Errorf("phase line %q does not mention %q", line, want)
			}
		}
	}
	if !bytes.Equal(encodeBytes(t, silent), encodeBytes(t, logged)) {
		t.Error("EncodeState differs between a trainer that logs its phase times and one that does not")
	}
}
