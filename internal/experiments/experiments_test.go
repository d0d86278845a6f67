package experiments

import (
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"pbqprl/internal/ate"
	"pbqprl/internal/game"
	"pbqprl/internal/net"
	"pbqprl/internal/rl"
	"pbqprl/internal/solve/scholz"
)

// tinySpec trains almost instantly; enough to exercise the plumbing.
func tinySpec() TrainSpec { return TrainSpec{KTrain: 4, Iterations: 1, Episodes: 2, Seed: 99} }

// TestTrainedNetMemoizedInProcess: a spec trains once per process. The
// second call returns the same network without a training run (no
// progress line), and training leaves nothing under os.TempDir().
func TestTrainedNetMemoizedInProcess(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	spec := tinySpec()
	// Another test may have trained this spec already: forget it, so
	// the first call here trains.
	netCacheMu.Lock()
	delete(netCache, cacheKey{spec: spec, tag: "ate"})
	netCacheMu.Unlock()
	var lines []string
	n1 := TrainedNet(spec, func(s string) { lines = append(lines, s) })
	if n1 == nil || len(lines) == 0 {
		t.Fatal("no training happened")
	}
	var lines2 []string
	n2 := TrainedNet(spec, func(s string) { lines2 = append(lines2, s) })
	if n2 != n1 {
		t.Error("second TrainedNet returned a different network")
	}
	if len(lines2) != 0 {
		t.Errorf("second TrainedNet trained again: %q", lines2)
	}
	if entries, err := os.ReadDir(tmp); err != nil || len(entries) != 0 {
		t.Errorf("TrainedNet wrote under os.TempDir(): %v %v", entries, err)
	}
}

// TestTrainedNetHoldsNoLockWhileTraining: netCacheMu guards the map and
// is never held across a training run. While one spec's build is parked
// in its progress callback, a lookup of a spec already trained returns.
func TestTrainedNetHoldsNoLockWhileTraining(t *testing.T) {
	cached := TrainedNet(tinySpec(), nil)
	other := tinySpec()
	other.Seed++
	netCacheMu.Lock()
	delete(netCache, cacheKey{spec: other, tag: "ate"})
	netCacheMu.Unlock()
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	built := make(chan struct{})
	go func() {
		defer close(built)
		TrainedNet(other, func(string) {
			once.Do(func() { close(entered) })
			<-release
		})
	}()
	defer func() {
		close(release)
		<-built
	}()
	<-entered
	looked := make(chan *net.PBQPNet, 1)
	go func() { looked <- TrainedNet(tinySpec(), nil) }()
	select {
	case n := <-looked:
		if n != cached {
			t.Error("lookup returned a different network")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a cached lookup blocked behind another spec's training run")
	}
}

func TestLoadNetRejectsMissing(t *testing.T) {
	if LoadNet("/nonexistent/net.gob") != nil {
		t.Fatal("loaded a nonexistent checkpoint")
	}
}

func TestTrainedNetSolvesSmallATEProgram(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a network")
	}
	n := TrainedNet(tinySpec(), nil)
	b := ate.Suite()[0]
	s := &rl.Solver{Net: n, Cfg: rl.Config{
		K: 25, Order: game.OrderIncLiberty, Backtrack: true,
		ReinvokeMCTS: true, MaxNodes: 200_000,
	}}
	res := s.Solve(b.Graph)
	if !res.Feasible {
		t.Errorf("tiny-trained net + backtracking failed PRO1 (states=%d)", res.States)
	}
}

func TestFig6VariantsShape(t *testing.T) {
	vs := Fig6Variants()
	if len(vs) != 4 {
		t.Fatalf("variants = %d", len(vs))
	}
	if vs[0].Backtrack || !vs[3].Backtrack {
		t.Error("variant backtracking flags wrong")
	}
	if vs[3].Order != game.OrderDecLiberty || vs[2].Order != game.OrderIncLiberty {
		t.Error("variant orders wrong")
	}
}

// TestScholzSolvesOnlyPRO1 is E3's first sentence: the original solver
// solves PRO1 and fails the other nine programs.
func TestScholzSolvesOnlyPRO1(t *testing.T) {
	for _, b := range ate.Suite() {
		want := b.Program.Name == "PRO1"
		if got := (scholz.Solver{}).Solve(b.Graph).Feasible; got != want {
			t.Errorf("%s: scholz feasible = %v, want %v", b.Program.Name, got, want)
		}
	}
}

func TestPrintersProduceTables(t *testing.T) {
	var sb strings.Builder
	PrintFig6(&sb, []Fig6Row{{Program: "PRO1", KInfer: 25,
		Cells: []Fig6Cell{{10, true}, {20, true}, {30, false}, {40, true}}}})
	out := sb.String()
	if !strings.Contains(out, "PRO1") || !strings.Contains(out, "X") {
		t.Errorf("fig6 table malformed:\n%s", out)
	}
	sb.Reset()
	PrintATESuccess(&sb, []ATESuccessRow{{KTrain: 50, KInfer: 25, Failures: 7}})
	if !strings.Contains(sb.String(), "( 50, 25): 7 failures") {
		t.Errorf("ate-k table malformed:\n%s", sb.String())
	}
	sb.Reset()
	PrintSearchSpace(&sb, []SearchSpaceRow{{Program: "PRO10", LibertyStates: 19_800_000, RLNodes: 5600, Ratio: 3535, LibertyOK: true, RLOK: true}})
	if !strings.Contains(sb.String(), "PRO10") {
		t.Errorf("searchspace table malformed:\n%s", sb.String())
	}
	sb.Reset()
	PrintDeadEnd(&sb, []DeadEndRow{{Program: "PRO1", WithMCTS: 5, WithoutMCTS: 6, OKWithMCTS: true, OKWithout: true}})
	if !strings.Contains(sb.String(), "PRO1") {
		t.Errorf("deadend table malformed:\n%s", sb.String())
	}
	sb.Reset()
	PrintKTradeoff(&sb, []KTradeoffRow{{Label: "(50,25)", TotalNodes: 100}})
	if !strings.Contains(sb.String(), "(50,25)") {
		t.Errorf("ktradeoff table malformed:\n%s", sb.String())
	}
	sb.Reset()
	PrintCostSums(&sb, []CostSumRow{{Program: "Oscar", PBQP: 100,
		RL: map[int]float64{40: 105, 80: 100, 160: 100}, Delta: map[int]float64{40: 0.05, 80: 0, 160: 0}}})
	if !strings.Contains(sb.String(), "Oscar") {
		t.Errorf("cost table malformed:\n%s", sb.String())
	}
	sb.Reset()
	PrintSpeedups(&sb, []SpeedupRow{{Allocator: "GREEDY", Speedup: 1.464}})
	if !strings.Contains(sb.String(), "GREEDY") || !strings.Contains(sb.String(), "1.464") {
		t.Errorf("speedup table malformed:\n%s", sb.String())
	}
}
