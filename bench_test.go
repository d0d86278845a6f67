package pbqprl_test

// Benchmark harness: one testing.B benchmark per paper table/figure
// (macro benchmarks, DESIGN.md experiments E1–E9) plus micro benchmarks
// of the performance-critical kernels. Macro benchmarks train their
// networks once per test binary, so every -bench run pays that
// training first.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"pbqprl"
	"pbqprl/internal/ate"
	"pbqprl/internal/decomp"
	"pbqprl/internal/experiments"
	"pbqprl/internal/game"
	"pbqprl/internal/gcn"
	"pbqprl/internal/llvmsuite"
	"pbqprl/internal/mcts"
	"pbqprl/internal/net"
	"pbqprl/internal/nn"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/perfmodel"
	"pbqprl/internal/randgraph"
	"pbqprl/internal/regalloc"
	"pbqprl/internal/rl"
	"pbqprl/internal/selfplay"
	"pbqprl/internal/solve"
	"pbqprl/internal/solve/brute"
	"pbqprl/internal/solve/scholz"
)

// --- Macro benchmarks: one per table/figure ---

// BenchmarkFig6 regenerates Figure 6 (E1): nodes generated per ATE
// program for the four solver variants at k_infer 25 and 50.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig6(nil)
		if len(rows) != 20 {
			b.Fatalf("fig6 rows = %d", len(rows))
		}
	}
}

// BenchmarkATESuccess regenerates the Section V-B success table (E2).
func BenchmarkATESuccess(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.ATESuccess(nil)
		if len(rows) != 3 {
			b.Fatalf("ate-k rows = %d", len(rows))
		}
	}
}

// BenchmarkSearchSpace regenerates the liberty-vs-Deep-RL search-space
// comparison (E3) and the baseline failure table (E9).
func BenchmarkSearchSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.SearchSpace(nil)
		if len(rows) != 10 {
			b.Fatalf("searchspace rows = %d", len(rows))
		}
	}
}

// BenchmarkDeadEndAblation regenerates the dead-end MCTS ablation (E4).
func BenchmarkDeadEndAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.DeadEndAblation(nil)
		if len(rows) != 10 {
			b.Fatalf("deadend rows = %d", len(rows))
		}
	}
}

// BenchmarkKTradeoff regenerates the k_train/k_infer trade-off (E5).
func BenchmarkKTradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.KTradeoff(nil)
		if len(rows) != 2 {
			b.Fatalf("ktradeoff rows = %d", len(rows))
		}
	}
}

// BenchmarkLLVMCostSum regenerates the Section V-C cost-sum comparison
// (E6) over the 24 benchmark programs.
func BenchmarkLLVMCostSum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.CostSums(nil)
		if len(rows) != 24 {
			b.Fatalf("llvm-cost rows = %d", len(rows))
		}
	}
}

// BenchmarkLLVMSpeedup regenerates the Section V-C speedup numbers (E7).
func BenchmarkLLVMSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Speedups(nil)
		if len(rows) != 4 {
			b.Fatalf("llvm-speedup rows = %d", len(rows))
		}
	}
}

// --- Micro benchmarks: the kernels the solvers spend time in ---

func fig2() *pbqprl.Graph {
	g := pbqprl.NewGraph(3, 2)
	g.SetVertexCost(0, pbqprl.Vector{5, 2})
	g.SetVertexCost(1, pbqprl.Vector{5, 0})
	g.SetVertexCost(2, pbqprl.Vector{0, 0})
	return g
}

// BenchmarkGraphTotalCost measures Equation 1 evaluation (E8's kernel).
func BenchmarkGraphTotalCost(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := pbqprl.ErdosRenyi(rng, pbqprl.ErdosRenyiConfig{N: 100, M: 13, PEdge: 0.1, PInf: 0.05})
	sel := make(pbqprl.Selection, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.TotalCost(sel)
	}
}

// BenchmarkScholzSolve measures the reduction solver on a realistic
// compiler-sized problem (oscar) and on the 12-vertex cluster with its
// anchor pinned to one colour that decomp(scholz) solves once per
// anchor colour of every block, ~13 000 times per solve of the
// benchmark's blocky graph (pinned-cluster).
func BenchmarkScholzSolve(b *testing.B) {
	bench := llvmsuite.Generate("Oscar")
	oscar := regalloc.BuildPBQP(regalloc.NewInput(bench.Prog.Funcs[0], regalloc.DefaultTarget(), bench.Allowed[0]))
	cluster := randgraph.LargeSparse(rand.New(rand.NewSource(1)),
		randgraph.LargeSparseConfig{N: 12, M: 4, ClusterSize: 12, Chords: 4})
	cluster.SetVertexCost(0, pbqprl.Vector{0, pbqprl.Inf, pbqprl.Inf, pbqprl.Inf})
	for _, c := range []struct {
		name string
		g    *pbqprl.Graph
	}{{"oscar", oscar}, {"pinned-cluster", cluster}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res := (scholz.Solver{}).Solve(c.g); !res.Feasible {
					b.Fatal("infeasible")
				}
			}
		})
	}
}

// BenchmarkDecompSolve times decomp(scholz) on two workers over the
// three shapes of the benchmark's biggraph workload, at a tenth of its
// 20 000 vertices: blocky (nothing reduces, thousands of tiny blocks),
// reducible (most vertices reduce away, one big residual block) and
// module (every LLVM-suite function, as one graph of 36 components). It
// reports each pipeline stage's ms per solve from the result's Stats,
// so a change can be placed in the stage it moves.
func BenchmarkDecompSolve(b *testing.B) {
	const n = 2000
	rng := rand.New(rand.NewSource(1))
	blocky := randgraph.LargeSparse(rng, randgraph.LargeSparseConfig{N: n, M: 4, Components: 8, ClusterSize: 12, Chords: 4})
	reducible := randgraph.ErdosRenyi(rng, randgraph.Config{N: n, M: 4, PEdge: 2.2 / n, PInf: 0.01})
	target := regalloc.DefaultTarget()
	var parts []*pbqp.Graph
	size := 0
	for _, bench := range llvmsuite.All() {
		for i, f := range bench.Prog.Funcs {
			parts = append(parts, regalloc.BuildPBQP(regalloc.NewInput(f, target, bench.Allowed[i])))
			size += parts[len(parts)-1].NumVertices()
		}
	}
	module := pbqp.New(size, target.NumRegs+1)
	offset := 0
	for _, part := range parts {
		for u := 0; u < part.NumVertices(); u++ {
			module.SetVertexCost(offset+u, part.VertexCost(u))
		}
		for _, e := range part.Edges() {
			module.SetEdgeCost(offset+e.U, offset+e.V, e.M)
		}
		offset += part.NumVertices()
	}
	d := decomp.Wrap(scholz.Solver{})
	d.Workers = 2
	for _, c := range []struct {
		name string
		g    *pbqp.Graph
	}{{"blocky", blocky}, {"reducible", reducible}, {"module", module}} {
		b.Run(c.name, func(b *testing.B) {
			stages := []string{"reduce_s", "csr_s", "blockcut_s", "solve_s", "expand_s"}
			sums := make([]float64, len(stages))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := d.Solve(c.g)
				if !res.Feasible {
					b.Fatal("infeasible")
				}
				for k, key := range stages {
					sums[k] += res.Stats[key]
				}
			}
			for k, key := range stages {
				b.ReportMetric(1e3*sums[k]/float64(b.N), strings.TrimSuffix(key, "_s")+"-ms/op")
			}
		})
	}
}

// BenchmarkBruteReach times the exact oracle near the edge of its
// reach: Erdős–Rényi graphs with m = 4 and n = 24 (er24) and ATE-style
// zero/infinity graphs with m = 13 and n = 40 (zeroinf40), seeds 1–5
// each. It reports the median solve, since one or two hard seeds
// dominate the mean. Every solve is checked: the zero/infinity graphs
// hide a feasible coloring, and each cost must be its selection's
// Equation 1 cost.
func BenchmarkBruteReach(b *testing.B) {
	var er24, zeroinf40 []*pbqprl.Graph
	for seed := int64(1); seed <= 5; seed++ {
		er24 = append(er24, randgraph.ErdosRenyi(rand.New(rand.NewSource(seed)),
			randgraph.Config{N: 24, M: 4, PEdge: 0.3, PInf: 0.1}))
		g, _ := randgraph.ZeroInf(rand.New(rand.NewSource(seed)),
			randgraph.ZeroInfConfig{N: 40, M: 13, PEdge: 0.3, HardRatio: 0.4, PEdgeInf: 0.5})
		zeroinf40 = append(zeroinf40, g)
	}
	for _, c := range []struct {
		name     string
		graphs   []*pbqprl.Graph
		feasible bool
	}{{"er24", er24, false}, {"zeroinf40", zeroinf40, true}} {
		b.Run(c.name, func(b *testing.B) {
			var ms []float64
			var states int64
			for i := 0; i < b.N; i++ {
				for _, g := range c.graphs {
					start := time.Now()
					res := brute.Solver{}.Solve(g)
					ms = append(ms, time.Since(start).Seconds()*1e3)
					if c.feasible && !res.Feasible {
						b.Fatal("infeasible, but the generator hides a coloring")
					}
					if res.Feasible && res.Cost != g.TotalCost(res.Selection) {
						b.Fatalf("cost %v, selection costs %v", res.Cost, g.TotalCost(res.Selection))
					}
					states += res.States
				}
			}
			sort.Float64s(ms)
			b.ReportMetric(ms[len(ms)/2], "median-ms/solve")
			b.ReportMetric(float64(states)/float64(len(ms)), "states/solve")
		})
	}
}

// BenchmarkLibertySolve measures the enumeration solver on the smallest
// ATE program.
func BenchmarkLibertySolve(b *testing.B) {
	g := ate.Suite()[0].Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pbqprl.Liberty(10_000_000).Solve(g)
	}
}

// BenchmarkMCTSSimulate measures MCTS simulation throughput with the
// uniform evaluator (pure search cost, no network).
func BenchmarkMCTSSimulate(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g, _ := pbqprl.ZeroInf(rng, pbqprl.ZeroInfConfig{
		N: 40, M: 13, PEdge: 0.25, HardRatio: 0.4, PEdgeInf: 0.3,
	})
	st := game.New(g, game.MakeOrder(g, game.OrderDecLiberty, nil))
	tree := mcts.New(mcts.Uniform{}, 13, mcts.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Run(st, 1)
	}
}

// BenchmarkNetEvaluate measures one network evaluation (the roll-out
// cost that dominates Deep-RL inference) on the inference engine, in
// its best case: the same view every time, so after the first
// iteration every memo table hits. benchmark/ measures it over the
// states of real searches and against the trainable pass
// (net.evaluate_into_us, net.forward_train_us).
func BenchmarkNetEvaluate(b *testing.B) {
	n := pbqprl.NewNet(pbqprl.NetConfig{M: 13, GCNLayers: 2, Hidden: 32, Blocks: 1, Seed: 3})
	rng := rand.New(rand.NewSource(3))
	g, _ := pbqprl.ZeroInf(rng, pbqprl.ZeroInfConfig{
		N: 40, M: 13, PEdge: 0.25, HardRatio: 0.4, PEdgeInf: 0.3,
	})
	st := game.New(g, game.MakeOrder(g, game.OrderDecLiberty, nil))
	view := st.View()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = n.Evaluate(view)
	}
}

// BenchmarkGCNInferSnapshot measures gcn.Infer where no table slot can
// answer: over the snapshots along one playout of a 60-vreg ATE program
// — the path benchmark/'s gcn.infer_us probe times — on one Scratch
// whose maps start each pass empty. A snapshot's table takes no slots,
// so every row comes from the two memo maps or is computed.
func BenchmarkGCNInferSnapshot(b *testing.B) {
	prog, hidden := ate.Generate(ate.DefaultMachine(), ate.GenConfig{
		Name: "bench", NumVRegs: 60, PairRatio: 0.30, HardRatio: 0.40, MaxLive: 8, Seed: 3000,
	})
	g, err := ate.BuildPBQP(prog)
	if err != nil {
		b.Fatal(err)
	}
	order := game.MakeOrder(g, game.OrderIncLiberty, nil)
	st := game.New(g, order)
	var views []gcn.View
	for t := 0; !st.Done() && !st.DeadEnd(); t++ {
		views = append(views, st.Snapshot())
		st.Play(hidden[order[t]])
	}
	cfg := experiments.DefaultNetConfig()
	layer := gcn.New(rand.New(rand.NewSource(cfg.Seed)), cfg.M, cfg.GCNLayers)
	var sc gcn.Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.InvalidateWeights()
		for _, v := range views {
			layer.Infer(v, &sc)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(views)), "us/view")
	b.ReportMetric(float64(len(views)), "views")
}

// poolGraphs builds the 24 programs of BenchmarkRLBacktrackNode: the
// first four of each PRO1–PRO6 size class of
// benchmark/testdata/ate_pool.json.
func poolGraphs(tb testing.TB) []*pbqprl.Graph {
	seeds := [][4]int64{
		{1000, 1001, 1002, 1004}, {2000, 2001, 2003, 2004}, {3000, 3001, 3002, 3004},
		{4000, 4002, 4003, 4011}, {5000, 5002, 5003, 5004}, {6002, 6006, 6007, 6010},
	}
	var graphs []*pbqprl.Graph
	for class, vregs := range []int{28, 45, 60, 78, 95, 115} {
		for _, seed := range seeds[class] {
			prog, _ := ate.Generate(ate.DefaultMachine(), ate.GenConfig{
				Name: "bench", NumVRegs: vregs, PairRatio: 0.30, HardRatio: 0.40, MaxLive: 8,
				Seed: seed,
			})
			g, err := ate.BuildPBQP(prog)
			if err != nil {
				tb.Fatal(err)
			}
			graphs = append(graphs, g)
		}
	}
	return graphs
}

// BenchmarkRLBacktrackNode is the source of DESIGN §10's "µs per tree
// node" row: 24 rl-bt solves — four generated programs at each PRO1–PRO6
// size (poolGraphs) — for each of rlbtCases. It reports wall time per
// generated tree node, the node count and the solves won; the two counts
// are the ones TestRLBacktrackLossesSpendBudget pins. Run it with -cpu 1.
func BenchmarkRLBacktrackNode(b *testing.B) {
	graphs := poolGraphs(b)
	base := net.New(experiments.DefaultNetConfig())
	for _, tc := range rlbtCases {
		b.Run(tc.name, func(b *testing.B) {
			var nodes, wins int64
			for i := 0; i < b.N; i++ {
				nodes, wins = 0, 0
				for _, g := range graphs {
					res := tc.solve(base, g)
					nodes += res.States
					if res.Feasible {
						wins++
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(int64(b.N)*nodes), "us/node")
			b.ReportMetric(float64(nodes), "nodes")
			b.ReportMetric(float64(wins), "wins")
		})
	}
}

// serveRLBT is rl-bt as pbqp-serve runs it.
var serveRLBT = rl.Config{K: 25, Order: game.OrderIncLiberty, Backtrack: true, ReinvokeMCTS: true, MaxNodes: 4000}

// rlbtCase is one search over the poolGraphs, with the sums of nodes
// and wins its 24 solves give.
type rlbtCase struct {
	name        string
	floor       bool
	nodes, wins int64
}

// rlbtCases are rl-bt as pbqp-serve runs it, on an untrained net, and
// the no-network floor of ROADMAP item 16: the same search with uniform
// priors and values and one simulation per move. Their sums must not
// move unless the search was meant to change.
var rlbtCases = []rlbtCase{
	{"net", false, 38049, 21},
	{"floor", true, 5074, 24},
}

// solve runs the case's search on g: the network case on a cold Clone
// of base, the floor on mcts.Uniform with K = 1.
func (tc rlbtCase) solve(base *net.PBQPNet, g *pbqprl.Graph) solve.Result {
	s := &rl.Solver{Net: mcts.Uniform{}, Cfg: serveRLBT}
	if tc.floor {
		s.Cfg.K = 1
	} else {
		s.Net = base.Clone()
	}
	return s.SolveCtx(context.Background(), g)
}

// TestRLBacktrackLossesSpendBudget pins each case's node and win sums
// over the poolGraphs, and holds rl-bt to what a search with a node
// budget may do on them, every one of which screens feasible: lose only
// by spending the budget. A loss below MaxNodes would mean the search
// gave up on a graph that has a coloring, that is, a conflict set that
// jumped past a level that could have mended the failure.
func TestRLBacktrackLossesSpendBudget(t *testing.T) {
	base := net.New(experiments.DefaultNetConfig())
	graphs := poolGraphs(t)
	for _, tc := range rlbtCases {
		var nodes, wins int64
		for i, g := range graphs {
			res := tc.solve(base, g)
			nodes += res.States
			if res.Feasible {
				wins++
				continue
			}
			if res.States < serveRLBT.MaxNodes {
				t.Errorf("%s: graph %d: lost after %d of %d nodes (%v)", tc.name, i, res.States, serveRLBT.MaxNodes, res.Stats)
			}
		}
		if nodes != tc.nodes || wins != tc.wins {
			t.Errorf("%s: %d nodes and %d wins over %d graphs, want %d and %d", tc.name, nodes, wins, len(graphs), tc.nodes, tc.wins)
		}
	}
}

// BenchmarkTrainStep is the source of DESIGN §10's "µs per gradient
// sample" row: the gradient phase of one iteration of benchmark/'s train
// workload (64 minibatches of 32 through selfplay.GradientStep, the
// function (*selfplay.Trainer).train calls, then L2 and an Adam step per
// minibatch), on one worker and on two, drawing as train draws — a
// seeded rng over the whole replay — from the ≥ 2 000 snapshots of as
// many self-played games as it takes (about 90; an untrained network
// dead-ends early) on that workload's ATE distribution. Run it with
// -cpu 2 or more: workers=2 on one CPU measures only what the hand-offs cost.
// It exists because the per-layer probes net.forward_train_us and
// net.backward_us cannot see what a gradient step costs in a training
// run: they loop over the 50 snapshots of one game, whose few hundred
// edge matrices stay cache-hot, where the replay holds hundreds of
// games and nearly every edge a sample touches is a cache miss. Before
// the pass moved onto packed kernels that was 1.3 KB of dense matrix per
// edge per layer, and the probes read 142 µs per sample against 380 µs
// in the run (2.7×).
func BenchmarkTrainStep(b *testing.B) {
	cfg := selfplay.Config{
		KTrain: 25,
		Order:  game.OrderDecLiberty,
		Generate: func(rng *rand.Rand) *pbqprl.Graph {
			prog, _ := ate.Generate(ate.DefaultMachine(), ate.GenConfig{
				Name: "train", NumVRegs: randgraph.NormalN(rng, 50, 16, 20),
				PairRatio: 0.3, HardRatio: 0.4, MaxLive: 8, Seed: rng.Int63(),
			})
			g, err := ate.BuildPBQP(prog)
			if err != nil {
				panic(err)
			}
			return g
		},
	}
	base := net.New(experiments.DefaultNetConfig())
	best := base.Clone()
	var replay []selfplay.Sample
	games := 0
	for ; len(replay) < 2048; games++ {
		res := selfplay.RunEpisode(cfg, base, best, int64(1+games))
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		for i := range res.Samples {
			res.Samples[i].Z = res.Z
		}
		replay = append(replay, res.Samples...)
	}
	const steps, batchSize = 64, 32
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			n := base.Clone()
			rng := rand.New(rand.NewSource(1))
			opt := nn.NewAdam(1e-3)
			slots, batch := make([]net.Slot, selfplay.StepSlots(workers, batchSize)), make([]selfplay.Sample, batchSize)
			n.SetTraining(true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for step := 0; step < steps; step++ {
					for k := range batch {
						batch[k] = replay[rng.Intn(len(replay))]
					}
					selfplay.GradientStep(n, workers, slots, batch, 0)
					nn.AddL2Grad(n.Params(), 1e-4)
					opt.Step(n.Params())
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*steps*batchSize), "us/sample")
			b.ReportMetric(float64(len(replay)), "snapshots")
			b.ReportMetric(float64(games), "games")
		})
	}
}

// BenchmarkGameNew measures what every solve and every episode pays
// before its first move: game.New, which transforms, packs and indexes
// each distinct edge matrix once. It runs over the 24 poolGraphs, whose
// thousands of edges carry two distinct matrices, and over an
// Erdős–Rényi graph of random real costs where no two directed edges
// share one, so each of its 4 446 edges misses the intern and pays a
// transform: there the time per edge is what a graph without sharing
// costs, and an intern that scanned the matrices it holds would make it
// grow with the edge count.
func BenchmarkGameNew(b *testing.B) {
	distinct := randgraph.ErdosRenyi(rand.New(rand.NewSource(9)),
		randgraph.Config{N: 150, M: 13, PEdge: 0.2, PInf: 0.05})
	for _, input := range []struct {
		name   string
		graphs []*pbqprl.Graph
	}{{"pool24", poolGraphs(b)}, {"er150-distinct", []*pbqprl.Graph{distinct}}} {
		orders := make([][]int, len(input.graphs))
		edges := 0
		for k, g := range input.graphs {
			orders[k] = game.MakeOrder(g, game.OrderIncLiberty, nil)
			edges += 2 * g.NumEdges()
		}
		b.Run(input.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for k, g := range input.graphs {
					game.New(g, orders[k])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*edges), "ns/edge")
			b.ReportMetric(float64(edges), "edges")
		})
	}
}

// BenchmarkBuildPBQP times the two graph builders: ate.BuildPBQP on
// generated 50- and 250-vreg programs, and regalloc.BuildPBQP over every
// function of the LLVM suite. Each installs every distinct constraint
// matrix once, so the allocations reported grow with the vertices and
// rows, not with one matrix copy per edge.
func BenchmarkBuildPBQP(b *testing.B) {
	for _, n := range []int{50, 250} {
		prog, _ := ate.Generate(ate.DefaultMachine(), ate.GenConfig{
			Name: "bench", NumVRegs: n, PairRatio: 0.3, HardRatio: 0.4, Seed: 1,
		})
		b.Run(fmt.Sprintf("ate/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ate.BuildPBQP(prog); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	target := regalloc.DefaultTarget()
	var ins []regalloc.Input
	for _, bench := range llvmsuite.All() {
		for i, f := range bench.Prog.Funcs {
			ins = append(ins, regalloc.NewInput(f, target, bench.Allowed[i]))
		}
	}
	b.Run("regalloc/llvmsuite", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, in := range ins {
				regalloc.BuildPBQP(in)
			}
		}
	})
}

// BenchmarkGamePlayUndo measures the do/undo transition kernel, which
// allocates nothing once the game's undo buffers are warm.
func BenchmarkGamePlayUndo(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g, _ := pbqprl.ZeroInf(rng, pbqprl.ZeroInfConfig{
		N: 60, M: 13, PEdge: 0.25, HardRatio: 0.4, PEdgeInf: 0.3,
	})
	st := game.New(g, game.MakeOrder(g, game.OrderDecLiberty, nil))
	a := -1
	for c := 0; c < st.M(); c++ {
		if st.Legal(c) {
			a = c
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Play(a)
		st.Undo()
	}
}

// BenchmarkGraphCodec is the text codec's checked-in number: Read, Write,
// CanonicalHash, and what the router pays for a new spelling (read,
// then write; BenchmarkRouterHit in internal/router times whole hits)
// on what the serving benchmark sends — a 60-vreg ATE
// graph, 144 KB of 64 000 tokens of which all but 500 are "0" or "inf",
// every one decoded and formatted by hand, and whose edges carry a few
// distinct matrices that Read shares — and on an Erdős–Rényi graph of
// random real costs of about the same byte size, where no two edges
// share a matrix and nearly every token is a 17-digit decimal that
// takes strconv.ParseFloat and strconv.AppendFloat as before. The
// per-layer rows pbqp.read_mb_per_s, pbqp.write_mb_per_s and
// pbqp.canonical_hash_us under benchmark/baseline/ were recorded on the
// ATE shape before the codec moved onto bytes and are stale several
// times over; ROADMAP item 9(a) owns re-recording them.
func BenchmarkGraphCodec(b *testing.B) {
	prog, _ := ate.Generate(ate.DefaultMachine(), ate.GenConfig{
		Name: "bench", NumVRegs: 60, PairRatio: 0.30, HardRatio: 0.40, MaxLive: 8, Seed: 3000,
	})
	ateGraph, err := ate.BuildPBQP(prog)
	if err != nil {
		b.Fatal(err)
	}
	finite := randgraph.ErdosRenyi(rand.New(rand.NewSource(7)),
		randgraph.Config{N: 30, M: 8, PEdge: 0.3, PInf: 0.01})
	for _, shape := range []struct {
		name string
		g    *pbqprl.Graph
	}{{"ate60", ateGraph}, {"finite30", finite}} {
		var text bytes.Buffer
		if err := pbqp.Write(&text, shape.g); err != nil {
			b.Fatal(err)
		}
		run := func(op string, f func() error) {
			b.Run(shape.name+"/"+op, func(b *testing.B) {
				b.SetBytes(int64(text.Len()))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := f(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		run("read", func() error {
			_, err := pbqp.Read(bytes.NewReader(text.Bytes()))
			return err
		})
		run("write", func() error { return pbqp.Write(io.Discard, shape.g) })
		run("hash", func() error {
			_, err := pbqp.CanonicalHash(shape.g)
			return err
		})
		// A body the router is sent: the canonical text, respelled.
		respelled := append(bytes.Clone(text.Bytes()), "# respelled\n"...)
		// What a new spelling costs it (router.canonicalize): read the
		// body, and append the graph Read built — one whose edges share
		// the pairs of their bit-identical matrices — to a buffer reused
		// from request to request, as the router's pool reuses it.
		var canon []byte
		run("canonicalize", func() error {
			g, err := pbqp.Read(bytes.NewReader(respelled))
			if err != nil {
				return err
			}
			canon, err = pbqp.AppendText(canon[:0], g)
			return err
		})
	}
}

// BenchmarkPerfModel measures the cycle estimator over the whole suite.
func BenchmarkPerfModel(b *testing.B) {
	bench := llvmsuite.Generate("FloatMM")
	target := regalloc.DefaultTarget()
	in := regalloc.NewInput(bench.Prog.Funcs[0], target, bench.Allowed[0])
	asn := regalloc.Greedy(in)
	params := perfmodel.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = perfmodel.EstimateFunc(bench.Prog.Funcs[0], asn, params)
	}
}
