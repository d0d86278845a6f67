package selfplay

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"pbqprl/internal/game"
	"pbqprl/internal/gcn"
	"pbqprl/internal/net"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/randgraph"
	"pbqprl/internal/tensor"
)

func tinyTrainer(t *testing.T, seed int64) *Trainer {
	t.Helper()
	m := 4
	n := net.New(net.Config{M: m, GCNLayers: 1, Hidden: 8, Blocks: 1, Seed: seed})
	return New(n, Config{
		EpisodesPerIter: 4,
		KTrain:          8,
		ReplayCap:       500,
		BatchSize:       8,
		TrainSteps:      4,
		ArenaGames:      4,
		ArenaWins:       2,
		Order:           game.OrderFixed,
		Seed:            seed,
		Generate: func(rng *rand.Rand) *pbqp.Graph {
			return randgraph.ErdosRenyi(rng, randgraph.Config{
				N: 6 + rng.Intn(4), M: m, PEdge: 0.4, PInf: 0.05,
			})
		},
	})
}

func TestRunIterationCollectsAndTrains(t *testing.T) {
	tr := tinyTrainer(t, 1)
	stats, err := tr.RunIteration(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Iteration != 1 || stats.Episodes != 4 {
		t.Errorf("stats header wrong: %+v", stats)
	}
	if stats.Samples == 0 || tr.ReplaySize() == 0 {
		t.Error("no samples collected")
	}
	if stats.Wins+stats.Losses+stats.Ties != stats.Episodes {
		t.Errorf("W/L/T does not add up: %+v", stats)
	}
	if stats.AvgLoss <= 0 {
		t.Errorf("avg loss = %v", stats.AvgLoss)
	}
	if len(stats.String()) == 0 {
		t.Error("empty stats string")
	}
}

func TestSamplesHaveConsistentLabels(t *testing.T) {
	tr := tinyTrainer(t, 2)
	tr.RunIteration(context.Background())
	for i := 0; i < tr.replay.len(); i++ {
		s := tr.replay.at(i)
		if s.Z != 1 && s.Z != -1 && s.Z != 0 {
			t.Fatalf("sample %d has reward %v", i, s.Z)
		}
		sum := 0.0
		for _, p := range s.Pi {
			if p < 0 {
				t.Fatalf("sample %d has negative policy", i)
			}
			sum += p
		}
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("sample %d policy sums to %v", i, sum)
		}
		if s.View.N() == 0 {
			t.Fatalf("sample %d has empty view", i)
		}
	}
}

func TestReplayCapEvictsOldest(t *testing.T) {
	tr := tinyTrainer(t, 3)
	tr.cfg.ReplayCap = 10
	tr.RunIteration(context.Background())
	if got := tr.ReplaySize(); got > 10 {
		t.Errorf("replay size = %d, cap 10", got)
	}
}

func TestPromotionGate(t *testing.T) {
	tr := tinyTrainer(t, 4)
	stats, err := tr.RunIteration(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// whatever the outcome, cur and best must agree afterwards:
	// promoted -> best := cur; rejected -> cur := best.
	view := sampleView(t)
	pc, vc := tr.Current().Evaluate(view)
	pb, vb := tr.Best().Evaluate(view)
	if vc != vb {
		t.Errorf("cur and best diverge after gate (promoted=%v)", stats.Promoted)
	}
	for i := range pc {
		if pc[i] != pb[i] {
			t.Fatalf("cur and best priors diverge after gate")
		}
	}
}

func sampleView(t *testing.T) gcn.View {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	g := randgraph.ErdosRenyi(rng, randgraph.Config{N: 5, M: 4, PEdge: 0.5, PInf: 0.05})
	st := game.New(g, game.MakeOrder(g, game.OrderFixed, nil))
	return st.Snapshot()
}

func TestSamplePolicy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pi := tensor.Vec{0, 0.7, 0.3}
	counts := [3]int{}
	for i := 0; i < 3000; i++ {
		a := samplePolicy(rng, pi)
		if a < 0 || a > 2 {
			t.Fatalf("sampled %d", a)
		}
		counts[a]++
	}
	if counts[0] != 0 {
		t.Error("zero-probability action sampled")
	}
	if counts[1] < 1800 || counts[1] > 2400 {
		t.Errorf("action 1 sampled %d/3000, want ~2100", counts[1])
	}
	if samplePolicy(rng, tensor.Vec{0, 0}) != -1 {
		t.Error("all-zero policy should return -1")
	}
}

func TestDeterministicTraining(t *testing.T) {
	a, b := tinyTrainer(t, 7), tinyTrainer(t, 7)
	sa, errA := a.RunIteration(context.Background())
	sb, errB := b.RunIteration(context.Background())
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if sa != sb {
		t.Errorf("same seed diverged: %+v vs %+v", sa, sb)
	}
}

func TestMissingGeneratePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(net.New(net.Config{M: 2, Seed: 1}), Config{})
}

func TestSamplePolicyRejectsNaN(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	if a := samplePolicy(rng, tensor.Vec{0.2, math.NaN(), 0.5}); a != -1 {
		t.Errorf("NaN policy sampled action %d, want -1", a)
	}
	if a := samplePolicy(rng, tensor.Vec{0.2, math.Inf(1), 0.5}); a != -1 {
		t.Errorf("Inf policy sampled action %d, want -1", a)
	}
}

func TestNewTrainerValidates(t *testing.T) {
	n := net.New(net.Config{M: 2, Seed: 1})
	if _, err := NewTrainer(n, Config{}); err == nil {
		t.Error("missing Generate accepted")
	}
	if _, err := NewTrainer(nil, Config{Generate: func(*rand.Rand) *pbqp.Graph { return nil }}); err == nil {
		t.Error("nil network accepted")
	}
	gen := func(rng *rand.Rand) *pbqp.Graph {
		return randgraph.ErdosRenyi(rng, randgraph.Config{N: 4, M: 2, PEdge: 0.4})
	}
	if _, err := NewTrainer(n, Config{Generate: gen, EpisodesPerIter: -1}); err == nil {
		t.Error("negative episode count accepted")
	}
	if _, err := NewTrainer(n, Config{Generate: gen}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestPanickingEpisodeIsIsolated(t *testing.T) {
	tr := tinyTrainer(t, 11)
	var warnings []string
	tr.cfg.Logf = func(format string, args ...any) {
		// the per-iteration phase line is not a warning
		if line := fmt.Sprintf(format, args...); !strings.Contains(line, " phases: ") {
			warnings = append(warnings, line)
		}
	}
	inner := tr.cfg.Generate
	calls := 0
	tr.cfg.Generate = func(rng *rand.Rand) *pbqp.Graph {
		calls++
		if calls == 2 {
			panic("synthetic generator failure")
		}
		return inner(rng)
	}
	stats, err := tr.RunIteration(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped != 1 {
		t.Errorf("Skipped = %d, want 1", stats.Skipped)
	}
	if got := stats.Wins + stats.Losses + stats.Ties; got != stats.Episodes-1 {
		t.Errorf("W+L+T = %d, want %d", got, stats.Episodes-1)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "graph seed") {
		t.Errorf("expected one skip warning naming the graph seed, got %v", warnings)
	}
	if !strings.Contains(stats.String(), "skipped=1") {
		t.Errorf("stats string %q does not report the skip", stats)
	}
	// the run must remain usable afterwards
	if _, err := tr.RunIteration(context.Background()); err != nil {
		t.Fatalf("iteration after a skipped episode failed: %v", err)
	}
}

func TestDivergenceDetection(t *testing.T) {
	tr := tinyTrainer(t, 12)
	if _, err := tr.RunIteration(context.Background()); err != nil {
		t.Fatal(err)
	}
	tr.cur.Params()[0].W[0] = math.NaN()
	_, err := tr.RunIteration(context.Background())
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("poisoned network not detected: err = %v", err)
	}
	if _, err := tr.EncodeState(); err == nil {
		t.Error("EncodeState checkpointed a poisoned network")
	}
}
