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

// Info reports what the decomposition did to one instance; a portfolio
// reports it in a decomp: stage's Outcome.
type Info struct {
	// OriginalVertices is the alive vertex count of the input.
	OriginalVertices int `json:"original_vertices"`
	// Eliminated is the number of vertices removed exactly by R0/R1/R2.
	Eliminated int `json:"eliminated_vertices"`
	// ResidualVertices is what was left for block solving.
	ResidualVertices int `json:"residual_vertices"`
	// Components is the number of connected components of the residual.
	Components int `json:"components"`
	// Blocks is the number of biconnected blocks across all components.
	Blocks int `json:"blocks"`
	// LargestBlock is the vertex count of the biggest block — the
	// largest subproblem the inner solver actually saw.
	LargestBlock int `json:"largest_block_vertices"`
	// CutVertices is the number of articulation vertices shared
	// between blocks.
	CutVertices int `json:"cut_vertices"`
	// StageSeconds says where the wall time went; its fields sit next
	// to the counts in the JSON form.
	StageSeconds
}

// StageSeconds is the wall time of each pipeline stage, in pipeline
// order: the exact reduction, the CSR snapshot, the block-cut scan, the
// block solves (all workers, wall time) and the expansion with its
// final cost evaluation. A stage that did not run reports zero.
type StageSeconds struct {
	Reduce   float64 `json:"reduce_s"`
	CSR      float64 `json:"csr_s"`
	BlockCut float64 `json:"blockcut_s"`
	Solve    float64 `json:"solve_s"`
	Expand   float64 `json:"expand_s"`
}

// Name implements solve.Solver.
func (s *Solver) Name() string { return "decomp(" + s.Inner.Name() + ")" }

// Solve implements solve.Solver.
func (s *Solver) Solve(g *pbqp.Graph) solve.Result {
	return s.SolveCtx(context.Background(), g)
}

// SolveCtx implements solve.Solver: the ctx budget is shared by
// every block solve (each one is delegated the context), so a deadline
// interrupts the pipeline wherever it currently is.
func (s *Solver) SolveCtx(ctx context.Context, g *pbqp.Graph) solve.Result {
	res, _ := s.SolveWithInfo(ctx, g)
	return res
}

// SolveWithInfo is SolveCtx plus the decomposition statistics.
func (s *Solver) SolveWithInfo(ctx context.Context, g *pbqp.Graph) (solve.Result, Info) {
	info := Info{OriginalVertices: g.AliveCount()}
	if ctx.Err() != nil {
		return solve.Result{Cost: cost.Inf, Truncated: true}, info
	}
	// Per-stage wall time is reporting only; it never feeds back into solver decisions.
	mark := time.Now()
	// lap returns the seconds since the previous lap: one stage's share.
	lap := func() float64 {
		d := time.Since(mark)
		mark = mark.Add(d)
		return d.Seconds()
	}
	red := reduce.Apply(g)
	info.Reduce = lap()
	w := red.Graph
	info.Eliminated = red.Eliminated
	info.ResidualVertices = w.AliveCount()
	// One state per reduction step, matching the reduction solvers'
	// accounting, plus whatever the inner solver reports per block.
	states := int64(red.Eliminated)
	truncated := false
	sel := make(pbqp.Selection, g.NumVertices())
	if w.AliveCount() > 0 {
		csr := pbqp.NewCSR(w)
		info.CSR = lap()
		sc := newScanner(csr)
		sc.run()
		info.Components = sc.numComps()
		info.Blocks = sc.numBlocks()
		for b := 0; b < sc.numBlocks(); b++ {
			if n := len(sc.block(b)); n > info.LargestBlock {
				info.LargestBlock = n
			}
		}
		for i := 0; i < csr.Len(); i++ {
			if sc.isCut[i] {
				info.CutVertices++
			}
		}
		info.BlockCut = lap()
		// Components touch disjoint vertices: each goroutine writes only
		// its components' vector folds and selection slots, so the shared
		// graph and selection need no locks. Outcomes are merged in
		// component order below, keeping the result deterministic
		// whatever the scheduling. par.Do gets no ctx: every component
		// must be claimed, because one never claimed would keep a zero
		// outcome — infeasible, not truncated — while solveComponent
		// reports a cancelled one as truncated.
		outcomes := make([]compOutcome, sc.numComps())
		par.Do(context.Background(), s.Workers, len(outcomes), func(_, c int) {
			outcomes[c] = s.solveComponent(ctx, w, csr, sc, c, sel)
		})
		info.Solve = lap()
		feasible := true
		for _, oc := range outcomes {
			states += oc.states
			if oc.truncated {
				truncated = true
			}
			if !oc.feasible {
				feasible = false
			}
		}
		if !feasible {
			return solve.Result{Cost: cost.Inf, Truncated: truncated, States: states}, info
		}
	}
	full, ok := red.Expand(sel)
	total := cost.Inf
	if ok {
		total = g.TotalCost(full)
	}
	info.Expand = lap()
	if total.IsInf() {
		return solve.Result{Cost: cost.Inf, Truncated: truncated, States: states}, info
	}
	return solve.Result{Selection: full, Cost: total, Feasible: true, Truncated: truncated, States: states}, info
}

type compOutcome struct {
	feasible  bool
	truncated bool
	states    int64
}

// solveComponent runs the two sweeps over component c's blocks: a
// forward (post-order) sweep folding every non-root block into its
// anchor cut vertex and solving the root block outright, then a
// backward sweep propagating chosen colors down to each block's
// stored per-color selection. It writes only c's vertices of sel.
func (s *Solver) solveComponent(ctx context.Context, w *pbqp.Graph, csr *pbqp.CSR, sc *scanner, c int, sel pbqp.Selection) compOutcome {
	lo, hi := sc.comp(c)
	m := w.M()
	oc := compOutcome{feasible: true}
	// tables[b-lo][a] is block b's local selection when its anchor is
	// pinned to color a; for the root block the single outright
	// solution sits at slot 0.
	tables := make([][]pbqp.Selection, hi-lo)
	for b := lo; b < hi; b++ {
		if ctx.Err() != nil {
			oc.feasible, oc.truncated = false, true
			return oc
		}
		verts := sc.block(b)
		h := blockGraph(w, csr, verts)
		if sc.isRoot[b] {
			res := s.Inner.SolveCtx(ctx, h)
			oc.states += res.States
			if res.Truncated {
				oc.truncated = true
			}
			if !res.Feasible {
				oc.feasible = false
				return oc
			}
			tables[b-lo] = []pbqp.Selection{res.Selection}
			continue
		}
		// Pin the anchor to each color in turn by replacing its vector
		// with "0 at a, ∞ elsewhere" — excluding the anchor's own
		// (possibly already folded) cost, which stays in the residual for
		// the parent block. Inner solvers do not mutate their input, so
		// the one block graph serves every pin.
		anchorID := csr.ID(int(verts[0]))
		cur := w.VertexCost(anchorID)
		newVec := cur.Clone()
		table := make([]pbqp.Selection, m)
		pin := cost.NewInfVector(m)
		for a := 0; a < m; a++ {
			if cur[a].IsInf() {
				continue // newVec[a] is already infinite
			}
			pin[a] = 0
			h.SetVertexCost(0, pin)
			pin[a] = cost.Inf
			res := s.Inner.SolveCtx(ctx, h)
			oc.states += res.States
			if res.Truncated {
				oc.truncated = true
			}
			if !res.Feasible {
				if res.Truncated {
					// Cut short, not proven infeasible: give up on the
					// component rather than fold a wrong infinity.
					oc.feasible = false
					return oc
				}
				newVec[a] = cost.Inf
				continue
			}
			newVec[a] = cur[a].Add(res.Cost)
			table[a] = res.Selection
		}
		w.SetVertexCost(anchorID, newVec)
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

// blockGraph extracts block verts (CSR indices, anchor first) of the
// residual w as a standalone graph sharing w's edge matrices. The
// block's edges are exactly the residual edges between its vertices:
// two biconnected components share at most one vertex, so no edge
// between two block vertices can belong to another block.
func blockGraph(w *pbqp.Graph, csr *pbqp.CSR, verts []int32) *pbqp.Graph {
	ids := make([]int, len(verts))
	for i, v := range verts {
		ids[i] = csr.ID(int(v))
	}
	return w.Induced(ids)
}
