// Package decomp turns one huge PBQP instance into many small ones: a
// solver-independent front end that (1) runs the exact R0/R1/R2
// reductions to a fixpoint, (2) snapshots the residual into a compact
// CSR adjacency, (3) splits it into connected components and
// articulation-point-separated biconnected blocks via a block-cut
// tree, and (4) solves each block independently with the wrapped inner
// solver, folding per-color block optima into the cut vertices'
// vectors so blocks compose exactly, then recombines the selections
// and expands the eliminated vertices.
//
// The folding step is the load-bearing trick (DESIGN.md §13): a
// non-root block B whose anchor cut vertex c is pinned to color a is
// solved with c's vector replaced by "0 at a, ∞ elsewhere", so the
// block optimum f_B(a) covers B's interior vertices and edges but not
// c itself; adding f_B(a) to c's vector entry a makes the parent
// block's view of c cost-equivalent to "c plus everything hanging
// below it". With an exact inner solver the recombined selection is a
// global optimum of Equation 1; with a heuristic inner solver every
// fold is an upper bound and quality degrades no faster than the
// heuristic itself.
//
// Wrap any solve.Solver and it transparently becomes a big-graph
// solver: components fan out over Workers goroutines through par.Do
// (results merged in component order, so the selection is deterministic
// for a deterministic inner solver), and the shared ctx budget cancels
// every block solve.
package decomp

import (
	"context"
	"slices"
	"sync"
	"time"

	"pbqprl/internal/cost"
	"pbqprl/internal/par"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/reduce"
	"pbqprl/internal/solve"
)

// Solver decomposes a graph and solves the pieces with Inner. It
// implements solve.Solver.
type Solver struct {
	// Inner solves the individual blocks. It must be exact (brute) for
	// exact decomposition; any solver works for heuristic use.
	Inner solve.Solver
	// Workers bounds how many connected components solve in parallel;
	// ≤ 1 solves them all on the caller's goroutine. Workers > 1
	// requires an Inner that is safe for concurrent Solve calls (the
	// built-ins brute, liberty and anneal hold no state between solves
	// and scholz draws a pooled workspace per solve, so all four are;
	// rl solvers carry their network's scratch buffers and are not).
	Workers int
}

// Wrap returns a decomposing wrapper around inner that solves components
// one at a time.
func Wrap(inner solve.Solver) *Solver { return &Solver{Inner: inner} }

// Name implements solve.Solver.
func (s *Solver) Name() string { return "decomp(" + s.Inner.Name() + ")" }

// Solve implements solve.Solver.
func (s *Solver) Solve(g *pbqp.Graph) solve.Result {
	return s.SolveCtx(context.Background(), g)
}

// SolveCtx implements solve.Solver: the ctx budget is shared by
// every block solve (each one is delegated the context), so a deadline
// interrupts the pipeline wherever it currently is.
//
// Stats reports what the decomposition did to g: its alive vertices
// ("original_vertices"), those R0/R1/R2 removed exactly
// ("eliminated_vertices"), those left for block solving
// ("residual_vertices"), the residual's connected components and
// biconnected blocks ("components", "blocks"), the vertex count of the
// largest block the inner solver saw ("largest_block_vertices") and the
// articulation vertices shared between blocks ("cut_vertices"). It also
// reports the wall seconds of each step, in pipeline order: the exact
// reduction, the CSR snapshot, the block-cut scan, the block solves
// (all workers, wall time) and the expansion with its final cost
// evaluation ("reduce_s", "csr_s", "blockcut_s", "solve_s",
// "expand_s"). A step that did not run reports zero. Beside those
// keys, Stats carries the inner solver's Stats summed per key over
// every block solve (rl-bt's "backtracks", say); the sums are taken
// per component and then in component order, so they come out the same
// on any number of workers, and a key decomp reports itself keeps
// decomp's value.
//
// Every stage runs in a pipeline taken from a pool (see pipeline), so
// a warm solve allocates its result and its stats, not its stages.
func (s *Solver) SolveCtx(ctx context.Context, g *pbqp.Graph) solve.Result {
	stats := map[string]float64{
		"original_vertices": float64(g.AliveCount()), "eliminated_vertices": 0, "residual_vertices": 0,
		"components": 0, "blocks": 0, "largest_block_vertices": 0, "cut_vertices": 0,
		"reduce_s": 0, "csr_s": 0, "blockcut_s": 0, "solve_s": 0, "expand_s": 0,
	}
	if ctx.Err() != nil {
		return solve.Result{Cost: cost.Inf, Truncated: true, Stats: stats}
	}
	res := solve.Result{Cost: cost.Inf, Stats: stats}
	p := pipelines.Get().(*pipeline)
	// Per-stage wall time is reporting only; it never feeds back into solver decisions.
	mark := time.Now()
	// lap records under key the seconds since the previous lap: one stage's share.
	lap := func(key string) {
		d := time.Since(mark)
		mark = mark.Add(d)
		stats[key] = d.Seconds()
	}
	red := &p.red
	red.Reapply(g)
	lap("reduce_s")
	w := red.Graph
	stats["eliminated_vertices"] = float64(red.Eliminated)
	stats["residual_vertices"] = float64(w.AliveCount())
	// One state per reduction step, matching the reduction solvers'
	// accounting, plus whatever the inner solver reports per block.
	res.States = int64(red.Eliminated)
	// Expand reads every alive remainder vertex from sel and copies the
	// rest, so the pooled selection is cleared: g's dead vertices keep 0.
	p.sel = slices.Grow(p.sel[:0], g.NumVertices())[:g.NumVertices()]
	clear(p.sel)
	if w.AliveCount() > 0 {
		csr := &p.csr
		csr.Snapshot(w)
		lap("csr_s")
		sc := &p.sc
		sc.run(csr)
		largest, cuts := 0, 0
		for b := 0; b < sc.numBlocks(); b++ {
			largest = max(largest, len(sc.block(b)))
		}
		for _, cut := range sc.isCut {
			if cut {
				cuts++
			}
		}
		stats["components"] = float64(sc.numComps())
		stats["blocks"] = float64(sc.numBlocks())
		stats["largest_block_vertices"] = float64(largest)
		stats["cut_vertices"] = float64(cuts)
		lap("blockcut_s")
		// Components touch disjoint vertices: each goroutine writes only
		// its components' vector folds and selection slots, so the shared
		// graph and selection need no locks. Outcomes are merged in
		// component order below, keeping the result deterministic
		// whatever the scheduling. par.Do gets no ctx: every component
		// must be claimed, because one never claimed would keep a zero
		// outcome — infeasible, not truncated — while solveComponent
		// reports a cancelled one as truncated.
		p.outcomes = slices.Grow(p.outcomes[:0], sc.numComps())[:sc.numComps()]
		outcomes := p.outcomes
		for len(p.works) < max(s.Workers, 1) {
			p.works = append(p.works, new(blockWork))
		}
		par.Do(context.Background(), s.Workers, len(outcomes), func(k, c int) {
			outcomes[c] = s.solveComponent(ctx, w, csr, sc, c, p.sel, p.works[k])
		})
		lap("solve_s")
		feasible := true
		var inner map[string]float64
		for _, oc := range outcomes {
			res.States += oc.states
			if oc.truncated {
				res.Truncated = true
			}
			if !oc.feasible {
				feasible = false
			}
			for key, v := range oc.stats {
				if inner == nil {
					inner = make(map[string]float64, len(oc.stats))
				}
				inner[key] += v
			}
		}
		for key, v := range inner {
			if _, own := stats[key]; !own {
				stats[key] = v
			}
		}
		if !feasible {
			pipelines.Put(p)
			return res
		}
	}
	full, ok := red.Expand(p.sel)
	total := cost.Inf
	if ok {
		total = g.TotalCost(full)
	}
	pipelines.Put(p)
	lap("expand_s")
	if total.IsInf() {
		return res
	}
	res.Selection, res.Cost, res.Feasible = full, total, true
	return res
}

// Info is the two block counts of SolveCtx's Stats.
type Info struct {
	Blocks       int
	LargestBlock int
}

// SolveWithInfo is SolveCtx that also returns its block counts.
func (s *Solver) SolveWithInfo(ctx context.Context, g *pbqp.Graph) (solve.Result, Info) {
	res := s.SolveCtx(ctx, g)
	return res, Info{int(res.Stats["blocks"]), int(res.Stats["largest_block_vertices"])}
}

// compOutcome is what one component's solves came to. stats sums
// the inner results' Stats per key, in block order, and stays nil
// while they are nil.
type compOutcome struct {
	feasible  bool
	truncated bool
	states    int64
	stats     map[string]float64
}

// add counts one inner solve into oc.
func (oc *compOutcome) add(res solve.Result) {
	oc.states += res.States
	if res.Truncated {
		oc.truncated = true
	}
	for key, v := range res.Stats {
		if oc.stats == nil {
			oc.stats = make(map[string]float64, len(res.Stats))
		}
		oc.stats[key] += v
	}
}

// pipeline is one solve's storage for everything around its block
// solves: the exact reduction, restarted on every input, the CSR
// snapshot and the block-cut scan rebuilt over its remainder, the
// remainder's selection, the components' outcomes and one block
// workspace per worker. A solve takes a pipeline from the pool and
// puts it back once Expand and TotalCost are done, when nothing reads
// the reduction's graph, the matrices R2 installed in it or its records
// any more, which is what reduce.Reduction.Restart requires of the next
// solve that takes it. What a pooled pipeline still holds — the last
// input's remainder, snapshot, scan and block graphs — is never read:
// every stage rebuilds its part before it reads it.
type pipeline struct {
	red      reduce.Reduction
	csr      pbqp.CSR
	sc       scanner
	sel      pbqp.Selection
	outcomes []compOutcome
	works    []*blockWork
}

var pipelines = sync.Pool{New: func() any { return new(pipeline) }}

// blockWork is one worker's storage for the blocks it solves: the
// block graph, rebuilt in place for every block (pbqp.Graph.InducedInto),
// and the arrays a component's tables and anchor folds are cut from.
// Nothing in it outlives solveComponent, so a worker reuses it for
// every component it claims, and a pipeline keeps one per worker.
type blockWork struct {
	g      pbqp.Graph
	ids    []int
	tables [][]pbqp.Selection
	sels   []pbqp.Selection
	fold   cost.Vector
}

// solveComponent runs the two sweeps over component c's blocks: a
// forward (post-order) sweep folding every non-root block into its
// anchor cut vertex and solving the root block outright, then a
// backward sweep propagating chosen colors down to each block's
// stored per-color selection. It writes only c's vertices of sel, and
// builds every block in bw.
func (s *Solver) solveComponent(ctx context.Context, w *pbqp.Graph, csr *pbqp.CSR, sc *scanner, c int, sel pbqp.Selection, bw *blockWork) compOutcome {
	lo, hi := sc.comp(c)
	m := w.M()
	oc := compOutcome{feasible: true}
	// tables[b-lo][a] is block b's local selection when its anchor is
	// pinned to color a; for the root block the single outright
	// solution sits at slot 0. Both are cut from bw and cleared, so no
	// selection of an earlier component is read.
	bw.tables = slices.Grow(bw.tables[:0], hi-lo)[:hi-lo]
	bw.sels = slices.Grow(bw.sels[:0], (hi-lo)*m)[:(hi-lo)*m]
	clear(bw.sels)
	tables := bw.tables
	for b := lo; b < hi; b++ {
		if ctx.Err() != nil {
			oc.feasible, oc.truncated = false, true
			return oc
		}
		verts := sc.block(b)
		h := bw.blockGraph(w, csr, verts)
		table := bw.sels[(b-lo)*m : (b-lo+1)*m : (b-lo+1)*m]
		if sc.isRoot[b] {
			res := s.Inner.SolveCtx(ctx, h)
			oc.add(res)
			if !res.Feasible {
				oc.feasible = false
				return oc
			}
			table[0] = res.Selection
			tables[b-lo] = table[:1]
			continue
		}
		// Pin the anchor to each color in turn by writing "0 at a, ∞
		// elsewhere" into the block graph's own vector — excluding the
		// anchor's own (possibly already folded) cost, which stays in the
		// residual for the parent block. Inner solvers do not mutate
		// their input, so the one block graph serves every pin. fold[a]
		// is what pinning the anchor to a adds to its cost: the block
		// optimum, or Inf where the block cannot take a.
		anchorID := csr.ID(int(verts[0]))
		cur := w.VertexCost(anchorID)
		pin := h.VertexCost(0)
		bw.fold = slices.Grow(bw.fold[:0], m)[:m]
		clear(bw.fold)
		for a := 0; a < m; a++ {
			if cur[a].IsInf() {
				continue // the fold leaves an infinite entry infinite
			}
			for k := range pin {
				pin[k] = cost.Inf
			}
			pin[a] = 0
			res := s.Inner.SolveCtx(ctx, h)
			oc.add(res)
			if !res.Feasible {
				if res.Truncated {
					// Cut short, not proven infeasible: give up on the
					// component rather than fold a wrong infinity.
					oc.feasible = false
					return oc
				}
				bw.fold[a] = cost.Inf
				continue
			}
			bw.fold[a] = res.Cost
			table[a] = res.Selection
		}
		w.AddToVertexCost(anchorID, bw.fold)
		tables[b-lo] = table
	}
	// Backward sweep: root first (it was emitted last), parents before
	// children, so every non-root block reads its anchor's color from
	// sel before assigning its interior.
	for b := hi - 1; b >= lo; b-- {
		verts := sc.block(b)
		if sc.isRoot[b] {
			rootSel := tables[b-lo][0]
			for i, v := range verts {
				sel[csr.ID(int(v))] = rootSel[i]
			}
			continue
		}
		t := tables[b-lo][sel[csr.ID(int(verts[0]))]]
		if t == nil {
			// Unreachable with a consistent inner solver: the parent
			// block saw an infinite folded entry for this color. Fail
			// closed rather than emit a bogus selection.
			oc.feasible = false
			return oc
		}
		for i, v := range verts {
			if i > 0 {
				sel[csr.ID(int(v))] = t[i]
			}
		}
	}
	return oc
}

// blockGraph rebuilds bw.g as block verts (CSR indices, anchor first)
// of the residual w, sharing w's edge matrices. The block's edges are
// exactly the residual edges between its vertices: two biconnected
// components share at most one vertex, so no edge between two block
// vertices can belong to another block.
func (bw *blockWork) blockGraph(w *pbqp.Graph, csr *pbqp.CSR, verts []int32) *pbqp.Graph {
	bw.ids = bw.ids[:0]
	for _, v := range verts {
		bw.ids = append(bw.ids, csr.ID(int(v)))
	}
	w.InducedInto(&bw.g, bw.ids)
	return &bw.g
}
