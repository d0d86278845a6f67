package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"pbqprl/internal/decomp"
	"pbqprl/internal/llvmsuite"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/randgraph"
	"pbqprl/internal/reduce"
	"pbqprl/internal/regalloc"
	"pbqprl/internal/solve/scholz"
)

// bigCase is one of the three graphs and what the checker knows of it.
type bigCase struct {
	name       string
	graph      *pbqp.Graph
	scholzCost float64 // plain scholz on the same graph, the cost reference
	info       decomp.Info
}

// bigGraph is the batch job: rounds over three graphs that put the time
// in three different decomposition stages, each solved with
// decomp.Wrap(scholz) on two workers.
type bigGraph struct {
	seed     int64
	rounds   int
	vertices int
	cases    []*bigCase
}

func (w *bigGraph) work() map[string]int {
	return map[string]int{"rounds": w.rounds, "generated_vertices": w.vertices, "decomp_workers": benchProcs}
}

// moduleGraph is the disjoint union of the llvmsuite function graphs:
// what one compilation unit's allocation traffic looks like as a
// single batch problem. It does not depend on the seed.
func moduleGraph() *pbqp.Graph {
	target := regalloc.DefaultTarget()
	var parts []*pbqp.Graph
	total := 0
	for _, b := range llvmsuite.All() {
		for i, f := range b.Prog.Funcs {
			g := regalloc.BuildPBQP(regalloc.NewInput(f, target, b.Allowed[i]))
			parts = append(parts, g)
			total += g.NumVertices()
		}
	}
	mod := pbqp.New(total, target.NumRegs+1)
	offset := 0
	for _, part := range parts {
		for u := 0; u < part.NumVertices(); u++ {
			mod.SetVertexCost(offset+u, part.VertexCost(u).Clone())
		}
		for _, e := range part.Edges() {
			mod.SetEdgeCost(offset+e.U, offset+e.V, e.M.Clone())
		}
		offset += part.NumVertices()
	}
	return mod
}

func (w *bigGraph) setUp(*tracer) error {
	rng := rand.New(rand.NewSource(w.seed))
	n := w.vertices
	w.cases = []*bigCase{
		// nothing reduces, thousands of tiny blocks: block-cut scan and block solves dominate
		{name: "blocky", graph: randgraph.LargeSparse(rng, randgraph.LargeSparseConfig{
			N: n, M: 4, Components: 8, ClusterSize: 12, Chords: 4})},
		// ~70 % of the vertices reduce away, one big residual block: reduce, then the inner solver
		{name: "reducible", graph: randgraph.ErdosRenyi(rng, randgraph.Config{
			N: n, M: 4, PEdge: 2.2 / float64(n), PInf: 0.01})},
		// 36 dense function-sized components, almost nothing reduces: component parallelism and RN
		{name: "module", graph: moduleGraph()},
	}
	return nil
}

func (w *bigGraph) tearDown() { w.cases = nil }

func (w *bigGraph) solver(workers int) *decomp.Solver {
	s := decomp.Wrap(scholz.Solver{})
	s.Workers = workers
	return s
}

func (w *bigGraph) measure(tr *tracer) (*pass, error) {
	// The cost reference is the oracle's work, not the system's
	// set-up: it is computed once and outside setup_s.
	for _, c := range w.cases {
		if c.scholzCost > 0 {
			continue
		}
		ref := scholz.Solver{}.Solve(c.graph)
		if err := checkResult(c.graph, ref); err != nil {
			return nil, fmt.Errorf("%s: plain scholz reference: %w", c.name, err)
		}
		c.scholzCost = ref.Cost.Finite()
	}
	p := &pass{headline: metrics{}}
	ds := w.solver(benchProcs)
	perCase := make([][]float64, len(w.cases))
	costs := make([]float64, len(w.cases))
	rounds := make([]float64, w.rounds)
	vertices := 0
	for _, c := range w.cases {
		vertices += c.graph.NumVertices()
	}
	for r := range rounds {
		begin := now()
		for i, c := range w.cases {
			start := now()
			res, info := ds.SolveWithInfo(context.Background(), c.graph)
			end := now()
			p.calls = append(p.calls, end.Sub(start))
			perCase[i] = append(perCase[i], end.Sub(start).Seconds())
			tr.add("decomp.solve", c.name+"#"+strconv.Itoa(r), "", start, end)
			p.attempted++
			c.info = info
			if err := checkResult(c.graph, res); err != nil {
				p.fail(fmt.Sprintf("%s round %d: %v", c.name, r, err))
				continue
			}
			costs[i] = res.Cost.Finite()
		}
		rounds[r] = now().Sub(begin).Seconds()
	}
	// Every round is the same work, so the median round stands for the
	// run: a collector cycle or a noisy neighbour slows some rounds by a
	// fifth, and a mean would carry that into the headline.
	p.throughput = float64(vertices) / median(rounds)
	logRatio := 0.0
	for i, c := range w.cases {
		p.headline.set("decomp."+c.name+"_vertices_per_s", float64(c.graph.NumVertices())/median(perCase[i]), "1/s")
		if costs[i] <= 0 || c.scholzCost <= 0 {
			p.fail(fmt.Sprintf("%s: cost ratio undefined: decomp %v, scholz %v", c.name, costs[i], c.scholzCost))
			continue
		}
		logRatio += math.Log(costs[i] / c.scholzCost)
	}
	p.headline.set("decomp.cost_ratio_vs_scholz", math.Exp(logRatio/float64(len(w.cases))), "ratio")
	return p, nil
}

func (w *bigGraph) layers(tr *tracer, m metrics) error {
	const reps = 3
	for _, c := range w.cases {
		var red *reduce.Reduction
		apply := timeMedian(reps, func() { red = reduce.Apply(c.graph) })
		m.set("reduce.apply_ms."+c.name, ms(apply), "ms")
		m.set("reduce.eliminated_share."+c.name, float64(red.Eliminated)/float64(c.graph.NumVertices()), "ratio")
		if red.Graph.AliveCount() > 0 {
			m.set("pbqp.csr_build_ms."+c.name, ms(timeMedian(reps, func() { pbqp.NewCSR(red.Graph) })), "ms")
		}
		one := timeMedian(reps, func() { w.solver(1).SolveWithInfo(context.Background(), c.graph) })
		two := timeMedian(reps, func() { w.solver(benchProcs).SolveWithInfo(context.Background(), c.graph) })
		m.set("decomp.residual_ms."+c.name, ms(two-apply), "ms")
		m.set("decomp.worker_speedup."+c.name, ratio(float64(one), float64(two)), "ratio")
		m.set("decomp.blocks."+c.name, float64(c.info.Blocks), "count")
		m.set("decomp.largest_block."+c.name, float64(c.info.LargestBlock), "count")
	}
	module := w.cases[len(w.cases)-1].graph
	plain := timeMedian(reps, func() { scholz.Solver{}.Solve(module) })
	m.set("scholz.vertices_per_s", float64(module.NumVertices())/plain.Seconds(), "1/s")
	return nil
}
