// Package game formulates PBQP as the paper's single-player, turn-based
// coloring game (Section III).
//
// A State wraps a PBQP graph whose vertices are numbered in coloring
// order. An action colors the next uncolored vertex; the transition
// detaches it and folds the selected edge-matrix rows into the uncolored
// neighbors' cost vectors (Figure 3), so every state is an equivalent,
// smaller uncolored graph — exactly the reduced-state encoding the
// paper uses to keep the network input uniform.
//
// Play/Undo are O(degree): the structure of the graph is immutable for a
// fixed order, only the suffix cost vectors mutate, and Undo restores
// the saved neighbor vectors. This makes MCTS simulation cheap and makes
// the backtracking solvers' take-backs (rl's and the liberty
// enumeration's) exact (infinity saturation is not arithmetically
// reversible, so vectors are restored, not subtracted).
// Play walks the vertex's later-neighbor list, which New builds once
// with each edge matrix's kernel beside the neighbor (one kernel per
// distinct matrix of the game, whose rows list their nonzero columns),
// and logs into the undo record of its turn, whose buffer every later
// visit to the turn reuses: a warm Play/Undo pair allocates nothing and
// probes no map.
package game

import (
	"fmt"
	"math/rand"
	"sort"

	"pbqprl/internal/cost"
	"pbqprl/internal/gcn"
	"pbqprl/internal/pbqp"
)

// Order selects the coloring order of a PBQP game (Section IV-E).
type Order int

const (
	// OrderFixed colors vertices in their existing numbering, the
	// paper's formulation for training on random graphs.
	OrderFixed Order = iota
	// OrderRandom shuffles the vertices (Figure 6 variant b).
	OrderRandom
	// OrderIncLiberty colors low-liberty (hard) vertices first
	// (variant c), as the liberty enumeration solver does; that solver
	// keeps program order inside its hard and easy classes.
	OrderIncLiberty
	// OrderDecLiberty colors high-liberty (easy) vertices first so
	// that hard decisions are made when MCTS is most informed — the
	// paper's recommended strategy (variant d).
	OrderDecLiberty
)

// String names the order as in Figure 6.
func (o Order) String() string {
	switch o {
	case OrderFixed:
		return "fixed"
	case OrderRandom:
		return "random"
	case OrderIncLiberty:
		return "inc-liberty"
	case OrderDecLiberty:
		return "dec-liberty"
	default:
		return fmt.Sprintf("order(%d)", int(o))
	}
}

// ParseOrder reads the command-line spelling of an order: fixed,
// random, inc or dec.
func ParseOrder(s string) (Order, error) {
	switch s {
	case "fixed":
		return OrderFixed, nil
	case "random":
		return OrderRandom, nil
	case "inc":
		return OrderIncLiberty, nil
	case "dec":
		return OrderDecLiberty, nil
	default:
		return 0, fmt.Errorf("unknown order %q (want fixed, random, inc or dec)", s)
	}
}

// MakeOrder returns the coloring order for g: a permutation listing the
// alive vertices in the order they will be colored. rng is only used by
// OrderRandom and may be nil otherwise.
func MakeOrder(g *pbqp.Graph, o Order, rng *rand.Rand) []int {
	vs := g.Vertices()
	switch o {
	case OrderRandom:
		rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
	case OrderIncLiberty:
		sort.SliceStable(vs, func(i, j int) bool { return g.Liberty(vs[i]) < g.Liberty(vs[j]) })
	case OrderDecLiberty:
		sort.SliceStable(vs, func(i, j int) bool { return g.Liberty(vs[i]) > g.Liberty(vs[j]) })
	}
	return vs
}

// State is a PBQP game in progress.
type State struct {
	n, m     int
	graph    *pbqp.Graph    // the graph permuted into coloring order; its vectors are vecs
	vecs     []cost.Vector  // current cost vectors (mutated in place)
	later    [][]laterEdge  // per vertex, its neighbors colored after it
	edges    *gcn.EdgeTable // full adjacency with the matrices' kernels, for views
	order    []int          // game vertex -> original vertex
	t        int            // next vertex to color
	played   []int
	acc      cost.Cost
	dead     int       // uncolored vertices with all-infinite vectors
	undo     []undoRec // indexed by turn; a record's buffer outlives its Undo
	baseline cost.Cost
	killer   []int // Culprits' scratch, one turn per color
}

// change records one overwritten cost-vector entry (infinity saturation
// is not subtractable, so Undo restores saved values). Only the nonzero
// entries of a row are visited and logged; in the ATE zero/infinity
// regime a row has one or two, so logs stay tiny and Play/Undo stay
// cheap inside MCTS simulation.
type change struct {
	v, i int
	old  cost.Cost
}

type undoRec struct {
	changes []change
	acc     cost.Cost
	dead    int
}

// laterEdge is one edge Play propagates along: the neighbor and the
// edge matrix, oriented so that its rows are the played vertex's
// colors.
type laterEdge struct {
	v int
	d *distinct
}

// distinct is one distinct edge matrix of a game: the graph's own
// (shared read-only, the pbqp ownership rule) and its kernel, which the
// network folds and whose columns of each row's nonzero entries are the
// only ones Play can change a neighbor's vector at.
type distinct struct {
	src *cost.Matrix
	k   *gcn.Kernel
}

// interner gives every edge matrix of one game its distinct form,
// looked up by pointer first — matrices a parsed graph shares, and the
// same matrix met again — then by content: a hash of the words, and on
// a hit a bitwise compare (math.Float64bits, so -0 and +0 stay apart
// and the kernel's transformed matrix is bit for bit the one either
// edge would transform to). A different matrix under a taken hash gets
// a distinct form of its own.
type interner struct {
	byPtr     map[*cost.Matrix]*distinct
	byContent map[uint64]*distinct
}

func (in *interner) intern(mat *cost.Matrix) *distinct {
	if d := in.byPtr[mat]; d != nil {
		return d
	}
	sum := cost.WordHash(mat.Data)
	d, taken := in.byContent[sum]
	if !taken || !cost.SameBits(d.src.Data, mat.Data) {
		d = &distinct{src: mat, k: gcn.PackCost(mat)}
		if !taken {
			in.byContent[sum] = d
		}
	}
	in.byPtr[mat] = d
	return d
}

// New builds a game over g with the given coloring order (a permutation
// of g's alive vertices, as returned by MakeOrder). The graph is not
// retained or mutated. The baseline for terminal rewards defaults to
// infinity: any finite-cost coloring counts as a win, the ATE regime.
func New(g *pbqp.Graph, order []int) *State {
	h := g.Permute(order)
	n, m := h.NumVertices(), h.M()
	s := &State{
		n: n, m: m,
		graph:    h,
		vecs:     make([]cost.Vector, n),
		later:    make([][]laterEdge, n),
		order:    append([]int(nil), order...),
		undo:     make([]undoRec, n),
		baseline: cost.Inf,
	}
	// h is the game's own copy of g, kept for Remainder, so the game
	// takes over its vectors: Play writes them in place. Its matrices
	// are g's own, shared read-only (the pbqp ownership rule), so the
	// game keeps both orientations without copying either. Each distinct
	// one is packed once per game into one kernel, which Play and every
	// table edge that carries the matrix share; the interference pattern
	// of an ATE graph is nearly every edge.
	in := interner{byPtr: make(map[*cost.Matrix]*distinct), byContent: make(map[uint64]*distinct)}
	// The table is an allocation of its own, so that a snapshot, which
	// a replay buffer keeps, holds it alive and not the game with h.
	s.edges = &gcn.EdgeTable{Start: make([]int32, n+1)}
	for u := 0; u < n; u++ {
		s.vecs[u] = h.VertexCost(u)
		if s.vecs[u].AllInf() {
			s.dead++
		}
		for _, w := range h.Neighbors(u) {
			d := in.intern(h.EdgeCost(u, w))
			if w > u {
				s.later[u] = append(s.later[u], laterEdge{v: w, d: d})
			}
			s.edges.AddEdge(w, d.k)
		}
		s.edges.Start[u+1] = int32(len(s.edges.Nbr))
	}
	return s
}

// N returns the total number of vertices in the game.
func (s *State) N() int { return s.n }

// M returns the color count.
func (s *State) M() int { return s.m }

// Turn returns the index of the next vertex to color (= the number of
// coloring actions taken so far).
func (s *State) Turn() int { return s.t }

// Done reports whether every vertex has been colored.
func (s *State) Done() bool { return s.t == s.n }

// Acc returns the accumulated cost of the actions taken so far. Because
// edge costs are folded into vertex vectors on each transition, this is
// the full Equation-1 cost of the colored prefix.
func (s *State) Acc() cost.Cost { return s.acc }

// SetBaseline sets the best player's cost for this episode; terminal
// values compare against it (Section III-B).
func (s *State) SetBaseline(c cost.Cost) { s.baseline = c }

// Legal reports whether coloring the next vertex with color a has
// finite cost.
func (s *State) Legal(a int) bool { return !s.vecs[s.t][a].IsInf() }

// DeadEnd reports whether the game is stuck: some uncolored vertex has
// no finite color left (Section IV-E). Detection is eager, as in the
// paper's graph manager, which notices a dead end as soon as it
// "transits to a new reduced graph": the propagation that kills a
// vertex makes the state terminal immediately, not only once the dead
// vertex comes up for coloring.
func (s *State) DeadEnd() bool { return !s.Done() && s.dead > 0 }

// Play colors the next vertex with color a, propagating costs to its
// uncolored neighbors. It panics if the game is done or a is illegal;
// use Legal first.
//
// Warm, it allocates nothing (TestPlayUndoWarmAllocFree).
func (s *State) Play(a int) {
	if s.Done() {
		// Callers check Done/Legal first: the self-play hot path cannot
		// afford error returns.
		panic("game: Play on a finished game")
	}
	if a < 0 || a >= s.m || !s.Legal(a) {
		panic(fmt.Sprintf("game: illegal action %d at turn %d", a, s.t))
	}
	rec := &s.undo[s.t]
	rec.acc, rec.dead = s.acc, s.dead
	changes := rec.changes[:0]
	for _, e := range s.later[s.t] {
		vec, row := s.vecs[e.v], e.d.src.Row(a)
		// a vector can only die by a finite entry turning infinite
		killed := false
		for _, i := range e.d.k.Cols(a) {
			old := vec[i]
			changes = append(changes, change{v: e.v, i: int(i), old: old})
			vec[i] = old.Add(row[i])
			killed = killed || (!old.IsInf() && vec[i].IsInf())
		}
		if killed && vec.AllInf() {
			s.dead++
		}
	}
	rec.changes = changes
	s.acc = s.acc.Add(s.vecs[s.t][a])
	s.played = append(s.played, a)
	s.t++
}

// Undo reverts the most recent Play. It panics if no action was taken.
//
// It allocates nothing (TestPlayUndoWarmAllocFree).
func (s *State) Undo() {
	if s.t == 0 {
		panic("game: Undo at initial state")
	}
	s.t--
	rec := &s.undo[s.t]
	s.played = s.played[:len(s.played)-1]
	s.acc = rec.acc
	s.dead = rec.dead
	for i := len(rec.changes) - 1; i >= 0; i-- {
		ch := rec.changes[i]
		s.vecs[ch.v][ch.i] = ch.old
	}
}

// Culprits calls mark with played turns whose colors, as played, keep
// every infinite entry of uncolored vertex v's cost vector infinite
// whatever the other turns play: the conflict set a backjumping search
// needs. An entry infinite from the start needs no turn. An entry a
// Play made infinite by adding an infinite cost needs that turn alone,
// since nothing added later or earlier can undo ∞; in the zero/∞ regime
// that is every entry. An entry that finite costs saturated into the
// infinite range depends on the whole sum, whose terms may be negative
// and whose order decides when it saturates, so then every colored
// neighbor of v is marked. Nothing is recorded for it: Culprits reads
// the undo records of v's colored neighbors, so Play pays nothing.
func (s *State) Culprits(v int, mark func(turn int)) {
	nbrs := s.edges.Nbr[s.edges.Start[v]:s.edges.Start[v+1]]
	for len(nbrs) > 0 && int(nbrs[len(nbrs)-1]) >= s.t {
		nbrs = nbrs[:len(nbrs)-1] // neighbors ascend, and turn u colors vertex u
	}
	if s.killer == nil {
		s.killer = make([]int, s.m)
	}
	// the turn that made entry i infinite is the last to change it while
	// it was finite; an entry stays infinite once it is
	killer := s.killer
	for i := range killer {
		killer[i] = -1
	}
	for _, u := range nbrs {
		for _, ch := range s.undo[u].changes {
			if ch.v == v && !ch.old.IsInf() {
				killer[ch.i] = int(u)
			}
		}
	}
	vec := s.vecs[v]
	for i, u := range killer {
		if u < 0 || !vec[i].IsInf() {
			continue
		}
		if !s.added(u, v, i).IsInf() {
			for _, w := range nbrs {
				mark(int(w))
			}
			return
		}
		mark(u)
	}
}

// added returns the cost turn u's Play added to entry i of vertex v.
func (s *State) added(u, v, i int) cost.Cost {
	for _, e := range s.later[u] {
		if e.v == v {
			return e.d.src.At(s.played[u], i)
		}
	}
	panic(fmt.Sprintf("game: vertex %d is not a later neighbor of turn %d", v, u))
}

// Killed returns a vertex the most recent Play killed (left with no
// finite color), or -1 if it killed none.
func (s *State) Killed() int {
	if s.t == 0 {
		return -1
	}
	for _, ch := range s.undo[s.t-1].changes {
		if !ch.old.IsInf() && s.vecs[ch.v].AllInf() {
			return ch.v
		}
	}
	return -1
}

// Remainder returns the uncolored suffix as a graph of its own: vertex
// i is turn Turn()+i, with a copy of its current (propagated) vector,
// and the edges among uncolored vertices are the game's, matrices
// shared read-only. Acc() plus the remainder's TotalCost of a
// completion is the original graph's Equation-1 cost of the whole
// coloring (exactly, on integer costs; the two sums round in different
// orders otherwise). Writing into the result's vectors leaves the game
// unchanged.
func (s *State) Remainder() *pbqp.Graph {
	turns := make([]int, s.n-s.t)
	for i := range turns {
		turns[i] = s.t + i
	}
	return s.graph.Induced(turns)
}

// Selection maps the colors played so far back to original vertex ids.
// It is only complete when Done.
func (s *State) Selection(numOriginal int) pbqp.Selection {
	sel := make(pbqp.Selection, numOriginal)
	for i := range sel {
		sel[i] = -1
	}
	for i, a := range s.played {
		sel[s.order[i]] = a
	}
	return sel
}

// TerminalValue returns the reward of the current position against the
// baseline: +1 (win) when the accumulated cost beats the baseline, -1
// (loss) when it is worse or the game is stuck at a dead end, 0 for a
// tie. It is meaningful for finished or dead-end games.
func (s *State) TerminalValue() float64 {
	if s.DeadEnd() {
		return -1
	}
	return CompareCosts(s.acc, s.baseline)
}

// LowerBound returns an optimistic completion estimate of the current
// position: the accumulated cost plus, for every uncolored vertex, the
// minimum finite entry of its current (propagated) vector. Edge costs
// between uncolored vertices are ignored, so for non-negative edge
// matrices this is a true lower bound on any completion.
func (s *State) LowerBound() cost.Cost {
	lb := s.acc
	for i := s.t; i < s.n; i++ {
		m, idx := s.vecs[i].Min()
		if idx < 0 {
			return cost.Inf
		}
		lb = lb.Add(m)
	}
	return lb
}

// HeuristicValue scores the current position by comparing the
// LowerBound against the baseline on the graded scale. It is the leaf
// value of minimization inference (mcts.Config.LeafValue), a cheap
// stand-in for the V-Net: optimistic (a bound, not an estimate), which
// is exactly what UCT-style search wants from an admissible heuristic.
// At a finished position LowerBound is Acc, so a finished coloring
// scores its margin against the baseline. The ternary TerminalValue,
// right for training and for the ATE zero/∞ regime, scores every
// coloring that fails to beat a strong baseline the same −1, and a
// search on it cannot tell nearly-as-good from terrible.
func (s *State) HeuristicValue() float64 {
	return GradedReward(s.LowerBound(), s.baseline)
}

// GradedReward returns the margin-based reward of achieving cost got
// against cost base: (base − got)/|base| clamped to [−1, 1], with the
// infinite cases degenerating to ±1 as in CompareCosts.
func GradedReward(got, base cost.Cost) float64 {
	if got.IsInf() && base.IsInf() {
		return 0
	}
	if got.IsInf() {
		return -1
	}
	if base.IsInf() {
		return 1
	}
	if base.IsZero() {
		return CompareCosts(got, base)
	}
	b := base.Finite()
	if b < 0 {
		b = -b
	}
	v := (base.Finite() - got.Finite()) / b
	if v > 1 {
		return 1
	}
	if v < -1 {
		return -1
	}
	return v
}

// CompareCosts returns the competition reward of achieving cost got
// against cost base: +1 if strictly lower, -1 if strictly higher, 0 on
// a tie (within a small relative tolerance).
func CompareCosts(got, base cost.Cost) float64 {
	if got.IsInf() && base.IsInf() {
		return 0
	}
	if got.IsInf() {
		return -1
	}
	if base.IsInf() {
		return 1
	}
	diff := got.Finite() - base.Finite()
	tol := 1e-9 * (1 + got.Finite() + base.Finite())
	switch {
	case diff < -tol:
		return 1
	case diff > tol:
		return -1
	default:
		return 0
	}
}
