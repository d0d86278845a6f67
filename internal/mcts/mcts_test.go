package mcts

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"pbqprl/internal/cost"
	"pbqprl/internal/game"
	"pbqprl/internal/gcn"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/randgraph"
	"pbqprl/internal/tensor"
)

func fig2Graph() *pbqp.Graph {
	g := pbqp.New(3, 2)
	g.SetVertexCost(0, cost.Vector{5, 2})
	g.SetVertexCost(1, cost.Vector{5, 0})
	g.SetVertexCost(2, cost.Vector{0, 0})
	g.SetEdgeCost(0, 1, cost.NewMatrixFrom([][]cost.Cost{{1, 3}, {7, 8}}))
	g.SetEdgeCost(1, 2, cost.NewMatrixFrom([][]cost.Cost{{0, 4}, {9, 6}}))
	g.SetEdgeCost(0, 2, cost.NewMatrixFrom([][]cost.Cost{{0, 2}, {5, 3}}))
	return g
}

func TestPolicySumsToOne(t *testing.T) {
	g := fig2Graph()
	st := game.New(g, []int{0, 1, 2})
	st.SetBaseline(24)
	tree := New(Uniform{}, 2, Config{})
	tree.Run(st, 30)
	pi := tree.Policy()
	sum := 0.0
	for _, v := range pi {
		if v < 0 {
			t.Fatalf("negative policy %v", pi)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("policy sum = %v", sum)
	}
}

// cancelAtPoll is a context whose Err reports context.Canceled from
// its k-th call on.
type cancelAtPoll struct {
	context.Context
	k, polls int
}

func (c *cancelAtPoll) Err() error {
	if c.polls++; c.polls >= c.k {
		return context.Canceled
	}
	return nil
}

// TestRunCtxStopsAtTheCancellingPoll: RunCtx polls before every
// simulation, so cancelled at its k-th poll it has run k-1 of them, and
// it says so.
func TestRunCtxStopsAtTheCancellingPoll(t *testing.T) {
	for k := 1; k <= 10; k++ {
		st := game.New(fig2Graph(), []int{0, 1, 2})
		st.SetBaseline(24)
		tree := New(Uniform{}, 2, Config{})
		ctx := &cancelAtPoll{Context: context.Background(), k: k}
		if got := tree.RunCtx(ctx, st, 100); got != k-1 {
			t.Fatalf("cancelled at poll %d: ran %d simulations, want %d", k, got, k-1)
		}
	}
}

func TestFindsOptimalMoveOnFig2(t *testing.T) {
	// with baseline 12 only cost-11 colorings win; MCTS with enough
	// simulations must prefer color 0 at the first vertex.
	g := fig2Graph()
	st := game.New(g, []int{0, 1, 2})
	st.SetBaseline(12)
	tree := New(Uniform{}, 2, Config{})
	tree.Run(st, 200)
	pi := tree.Policy()
	if pi[0] <= pi[1] {
		t.Errorf("policy prefers suboptimal color: %v", pi)
	}
}

func TestNodesCountExpansionsOnly(t *testing.T) {
	g := fig2Graph()
	st := game.New(g, []int{0, 1, 2})
	tree := New(Uniform{}, 2, Config{})
	tree.Run(st, 100)
	// complete tree for n=3, m=2 has 1+2+4+8 = 15 states; terminal
	// revisits must not inflate the count
	if tree.Nodes() > 15 {
		t.Errorf("nodes = %d, want <= 15", tree.Nodes())
	}
	if tree.Nodes() < 7 {
		t.Errorf("nodes = %d, implausibly low after 100 simulations", tree.Nodes())
	}
}

func TestStateRestoredAfterRun(t *testing.T) {
	g := fig2Graph()
	st := game.New(g, []int{0, 1, 2})
	tree := New(Uniform{}, 2, Config{})
	tree.Run(st, 50)
	if st.Turn() != 0 || st.Acc() != 0 {
		t.Errorf("state mutated: turn=%d acc=%v", st.Turn(), st.Acc())
	}
}

func TestAdvanceReusesSubtree(t *testing.T) {
	g := fig2Graph()
	st := game.New(g, []int{0, 1, 2})
	tree := New(Uniform{}, 2, Config{})
	tree.Run(st, 50)
	before := tree.Nodes()
	st.Play(0)
	tree.Advance(0)
	// the advanced root was already expanded; one more run only adds
	// new leaves below it
	tree.Run(st, 10)
	if tree.Nodes() == before+11 {
		t.Error("no subtree reuse: every simulation expanded a node")
	}
	pi := tree.Policy()
	if len(pi) != 2 {
		t.Fatalf("policy len = %d", len(pi))
	}
}

func TestBackReturnsToParent(t *testing.T) {
	g := fig2Graph()
	st := game.New(g, []int{0, 1, 2})
	tree := New(Uniform{}, 2, Config{RetainParents: true})
	tree.Run(st, 20)
	rootPi := tree.Policy()
	st.Play(1)
	tree.Advance(1)
	tree.Run(st, 5)
	st.Undo()
	tree.Back()
	pi := tree.Policy()
	for i := range pi {
		if math.Abs(pi[i]-rootPi[i]) > 0.5 {
			t.Errorf("policy wildly different after Back: %v vs %v", pi, rootPi)
		}
	}
}

func TestBackAtRootPanics(t *testing.T) {
	tree := New(Uniform{}, 2, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tree.Back()
}

func TestDisableRootAction(t *testing.T) {
	g := fig2Graph()
	st := game.New(g, []int{0, 1, 2})
	tree := New(Uniform{}, 2, Config{})
	tree.Run(st, 50)
	tree.DisableRootAction(0)
	pi := tree.Policy()
	if pi[0] != 0 {
		t.Errorf("disabled action has probability %v", pi[0])
	}
	if pi[1] == 0 {
		t.Error("remaining action lost probability")
	}
	if !tree.RootHasMove() {
		t.Error("RootHasMove false with one action left")
	}
	tree.DisableRootAction(1)
	if tree.RootHasMove() {
		t.Error("RootHasMove true with all actions disabled")
	}
	// further simulations must not crash
	tree.Run(st, 5)
}

func TestIllegalColorsNeverSelected(t *testing.T) {
	g := pbqp.New(2, 3)
	g.SetVertexCost(0, cost.Vector{cost.Inf, 0, cost.Inf})
	g.SetVertexCost(1, cost.Vector{0, 0, 0})
	st := game.New(g, []int{0, 1})
	tree := New(Uniform{}, 3, Config{})
	tree.Run(st, 40)
	pi := tree.Policy()
	if pi[0] != 0 || pi[2] != 0 {
		t.Errorf("illegal colors got probability: %v", pi)
	}
	if math.Abs(pi[1]-1) > 1e-9 {
		t.Errorf("legal color probability = %v", pi[1])
	}
}

func TestDeadEndsPropagateLoss(t *testing.T) {
	// vertex 0 colored with color 0 kills vertex 1 (its only finite
	// color conflicts); MCTS must learn to prefer color 1.
	g := pbqp.New(2, 2)
	g.SetVertexCost(0, cost.Vector{0, 0})
	g.SetVertexCost(1, cost.Vector{0, cost.Inf})
	mat := cost.NewMatrix(2, 2)
	mat.Set(0, 0, cost.Inf) // (v0=0, v1=0) forbidden
	g.SetEdgeCost(0, 1, mat)
	st := game.New(g, []int{0, 1})
	tree := New(Uniform{}, 2, Config{})
	tree.Run(st, 100)
	pi := tree.Policy()
	if pi[1] <= pi[0] {
		t.Errorf("policy did not avoid the dead end: %v", pi)
	}
}

// TestLeafValueScoresAllButDeadEnds: a set LeafValue scores open and
// finished positions alike, and a dead end still scores -1 without
// consulting it.
func TestLeafValueScoresAllButDeadEnds(t *testing.T) {
	g := pbqp.New(2, 2)
	g.SetVertexCost(0, cost.Vector{0, 0})
	g.SetVertexCost(1, cost.Vector{0, cost.Inf})
	mat := cost.NewMatrix(2, 2)
	mat.Set(0, 0, cost.Inf) // coloring v0 with 0 kills v1
	g.SetEdgeCost(0, 1, mat)
	st := game.New(g, []int{0, 1})
	var open, done int
	leaf := func(s *game.State) float64 {
		switch {
		case s.DeadEnd():
			t.Error("LeafValue called on a dead end")
		case s.Done():
			done++
		default:
			open++
		}
		return 0.25
	}
	tree := New(Uniform{}, 2, Config{LeafValue: leaf})
	tree.Run(st, 20)
	if open == 0 || done == 0 {
		t.Fatalf("LeafValue scored %d open and %d finished positions; want both", open, done)
	}
	if q := tree.root.q; q[0] != -1 || q[1] != 0.25 {
		t.Errorf("root Q = %v, want [-1 0.25]", q)
	}
}

// valueBiasedEval gives a high prior to a fixed color, to test that the
// prior steers early exploration.
type valueBiasedEval struct{ favorite int }

func (e valueBiasedEval) Evaluate(view gcn.View) (tensor.Vec, float64) {
	vec := view.Vec(0)
	prior := make(tensor.Vec, len(vec))
	for i, c := range vec {
		if !c.IsInf() {
			prior[i] = 0.05
		}
	}
	if !vec[e.favorite].IsInf() {
		prior[e.favorite] = 1
	}
	// unnormalized is fine for the UCB term
	return prior, 0
}

func TestPriorSteersFirstSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randgraph.ErdosRenyi(rng, randgraph.Config{N: 6, M: 4, PEdge: 0.4, PInf: 0})
	st := game.New(g, game.MakeOrder(g, game.OrderFixed, nil))
	tree := New(valueBiasedEval{favorite: 2}, 4, Config{})
	tree.Run(st, 2) // root expansion + one selection
	pi := tree.Policy()
	if pi[2] != 1 {
		t.Errorf("first simulation did not follow the prior: %v", pi)
	}
}

func TestPolicyBeforeRunIsZero(t *testing.T) {
	tree := New(Uniform{}, 3, Config{})
	pi := tree.Policy()
	for _, v := range pi {
		if v != 0 {
			t.Errorf("policy before Run = %v", pi)
		}
	}
}

// trapGraph builds a graph whose first decision offers a poisoned
// branch: after v0=0 the state is still alive, but every coloring of
// vertex 1 then strangles vertex 2 — so the subtree under v0=0 is
// exhausted after two expansions. v0=1 opens a free binary tree over
// `chain` further vertices (all costs zero, no other edges).
func trapGraph(chain int) (*pbqp.Graph, []int) {
	n := 3 + chain
	g := pbqp.New(n, 2)
	for i := 0; i < n; i++ {
		g.SetVertexCost(i, cost.Vector{0, 0})
	}
	m02 := cost.NewMatrix(2, 2)
	m02.Set(0, 0, cost.Inf) // v0=0 kills v2's color 0
	g.SetEdgeCost(0, 2, m02)
	m12 := cost.NewMatrix(2, 2)
	m12.Set(0, 1, cost.Inf) // any coloring of v1 kills v2's color 1
	m12.Set(1, 1, cost.Inf)
	g.SetEdgeCost(1, 2, m12)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return g, order
}

// rootBiasedEval puts nearly all prior mass on action 0 at the root
// state (recognized by its full vertex count) and is uniform elsewhere,
// so the search keeps being pulled toward the root's poisoned branch.
type rootBiasedEval struct{ full int }

func (e rootBiasedEval) Evaluate(view gcn.View) (tensor.Vec, float64) {
	vec := view.Vec(0)
	prior := make(tensor.Vec, len(vec))
	for i, c := range vec {
		if !c.IsInf() {
			prior[i] = 1 / float64(len(vec))
		}
	}
	if view.N() == e.full && !vec[0].IsInf() {
		prior[0], prior[1] = 0.99, 0.01
	}
	return prior, 0
}

// TestExhaustedSubtreeClosed is the regression test for the dead-end
// marking bug: once every child of a node is a known dead end,
// selectAction returns -1 there — and before the fix the node was never
// marked, so the parent kept re-descending into the spent subtree and
// those simulations expanded nothing. With the marking, at most a
// couple of simulations are spent discovering the exhaustion and every
// other one expands a fresh node.
func TestExhaustedSubtreeClosed(t *testing.T) {
	const k = 400
	g, order := trapGraph(40)
	st := game.New(g, order)
	// sanity: the trap is live after v0=0 and springs on any v1 color
	st.Play(0)
	if st.DeadEnd() {
		t.Fatal("trap sprang one move early")
	}
	st.Play(0)
	if !st.DeadEnd() {
		t.Fatal("trap graph is not a trap")
	}
	st.Undo()
	st.Undo()

	tree := New(rootBiasedEval{full: st.N()}, 2, Config{})
	tree.Run(st, k)
	// expansions: k simulations minus the one that discovers the
	// exhaustion of the v0=0 subtree (plus slack for selection-order
	// shifts). The unfixed planner wastes ~1.2·√k simulations
	// re-descending and lands far below this bound.
	if tree.Nodes() < k-4 {
		t.Errorf("nodes = %d after %d simulations, want >= %d (budget burned on an exhausted subtree)", tree.Nodes(), k, k-4)
	}
	if pi := tree.Policy(); pi[0] != 0 {
		t.Errorf("exhausted branch still has policy mass: %v", pi)
	}
}

// TestForcedDeadEndClosesRoot drives the marking all the way up: when
// every branch of the root dead-ends, the root itself must become
// terminal, with an empty policy and no open move, and further
// simulations must not expand anything.
func TestForcedDeadEndClosesRoot(t *testing.T) {
	g := pbqp.New(3, 2)
	for i := 0; i < 3; i++ {
		g.SetVertexCost(i, cost.Vector{0, 0})
	}
	m02 := cost.NewMatrix(2, 2)
	m02.Set(0, 0, cost.Inf) // either v0 color kills v2's color 0
	m02.Set(1, 0, cost.Inf)
	g.SetEdgeCost(0, 2, m02)
	m12 := cost.NewMatrix(2, 2)
	m12.Set(0, 1, cost.Inf) // any v1 color kills v2's color 1
	m12.Set(1, 1, cost.Inf)
	g.SetEdgeCost(1, 2, m12)

	st := game.New(g, []int{0, 1, 2})
	tree := New(Uniform{}, 2, Config{})
	tree.Run(st, 100)
	// reachable states: root, 2 after v0, 4 dead ends after v1
	if tree.Nodes() > 7 {
		t.Errorf("nodes = %d, want <= 7 on a 7-state graph", tree.Nodes())
	}
	if tree.RootHasMove() {
		t.Error("root still reports an open move with every branch exhausted")
	}
	for a, p := range tree.Policy() {
		if p != 0 {
			t.Errorf("policy[%d] = %v on a fully dead root", a, p)
		}
	}
	before := tree.Nodes()
	tree.Run(st, 50)
	if tree.Nodes() != before {
		t.Errorf("closed root still expands nodes: %d -> %d", before, tree.Nodes())
	}
}

// TestAdvanceDetachesParent covers the memory fix: without
// RetainParents, Advance must cut the link to the abandoned parent and
// its sibling subtrees so they can be collected; Back is then invalid.
func TestAdvanceDetachesParent(t *testing.T) {
	g := fig2Graph()
	st := game.New(g, []int{0, 1, 2})
	tree := New(Uniform{}, 2, Config{})
	tree.Run(st, 50)
	old := tree.root
	st.Play(0)
	tree.Advance(0)
	if tree.root.parent != nil {
		t.Error("advanced root keeps a parent pointer without RetainParents")
	}
	if old.children != nil {
		t.Error("abandoned parent keeps its children reachable")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Back after a detaching Advance should panic")
		}
	}()
	tree.Back()
}

// TestRetainParentsKeepsChain is the backtracking contract: with
// RetainParents, Advance preserves the chain and Back walks it.
func TestRetainParentsKeepsChain(t *testing.T) {
	g := fig2Graph()
	st := game.New(g, []int{0, 1, 2})
	tree := New(Uniform{}, 2, Config{RetainParents: true})
	tree.Run(st, 30)
	old := tree.root
	st.Play(0)
	tree.Advance(0)
	if tree.root.parent != old {
		t.Fatal("RetainParents did not keep the parent link")
	}
	st.Undo()
	tree.Back()
	if tree.root != old {
		t.Fatal("Back did not return to the abandoned root")
	}
}

func TestUniformEvaluator(t *testing.T) {
	g := pbqp.New(1, 4)
	g.SetVertexCost(0, cost.Vector{0, cost.Inf, 0, cost.Inf})
	prior, v := Uniform{}.Evaluate(game.New(g, g.Vertices()).View())
	if prior[0] != 0.5 || prior[2] != 0.5 || prior[1] != 0 || prior[3] != 0 {
		t.Errorf("uniform prior = %v", prior)
	}
	if v != 0 {
		t.Errorf("uniform value = %v", v)
	}
	g2 := pbqp.New(1, 2)
	g2.SetVertexCost(0, cost.NewInfVector(2))
	_, v = Uniform{}.Evaluate(game.New(g2, g2.Vertices()).View())
	if v != -1 {
		t.Errorf("dead-end uniform value = %v", v)
	}
}

// panicEval fails any test that asks it for an evaluation.
type panicEval struct{ t *testing.T }

func (e panicEval) Evaluate(gcn.View) (tensor.Vec, float64) {
	e.t.Fatal("evaluator called")
	return nil, 0
}

// TestForcedPlaysWithoutEvaluation pins the forced-move shortcut: a
// root with one legal color is expanded on the spot, as one node under
// a one-hot prior, and the evaluator is never asked; a root with a
// choice is left for Run.
func TestForcedPlaysWithoutEvaluation(t *testing.T) {
	g := pbqp.New(2, 3)
	g.SetVertexCost(0, cost.Vector{cost.Inf, 0, cost.Inf})
	g.SetVertexCost(1, cost.Vector{0, 0, cost.Inf})
	st := game.New(g, []int{0, 1})
	tree := New(panicEval{t}, 3, Config{})
	if a, open := tree.Forced(st); a != 1 || open != 1 {
		t.Fatalf("Forced = (%d, %d), want (1, 1)", a, open)
	}
	if tree.Nodes() != 1 {
		t.Errorf("nodes = %d after a forced expansion, want 1", tree.Nodes())
	}
	if pi := tree.Policy(); pi[0] != 0 || pi[1] != 1 || pi[2] != 0 {
		t.Errorf("policy %v, want one-hot on color 1", pi)
	}
	st.Play(1)
	tree.Advance(1)
	if a, open := tree.Forced(st); a != -1 || open != 2 {
		t.Errorf("Forced = (%d, %d) with two legal colors, want (-1, 2)", a, open)
	}
	if tree.Nodes() != 1 {
		t.Errorf("nodes = %d: a root with a choice was expanded", tree.Nodes())
	}
}

// TestClosedActionsCanBeWalked covers what a backtracking caller needs
// to explain a root the search closed: Closed names the actions whose
// subtrees are proven dead, Forced finds none open, and Advance still
// walks into the exhausted children.
func TestClosedActionsCanBeWalked(t *testing.T) {
	g := pbqp.New(3, 2)
	for i := 0; i < 3; i++ {
		g.SetVertexCost(i, cost.Vector{0, 0})
	}
	m02 := cost.NewMatrix(2, 2)
	m02.Set(0, 0, cost.Inf)
	m02.Set(1, 0, cost.Inf)
	g.SetEdgeCost(0, 2, m02)
	m12 := cost.NewMatrix(2, 2)
	m12.Set(0, 1, cost.Inf)
	m12.Set(1, 1, cost.Inf)
	g.SetEdgeCost(1, 2, m12)
	st := game.New(g, []int{0, 1, 2})
	tree := New(Uniform{}, 2, Config{RetainParents: true})
	tree.Run(st, 100)
	if a, open := tree.Forced(st); a != -1 || open != 0 {
		t.Errorf("Forced = (%d, %d) on an exhausted root, want (-1, 0)", a, open)
	}
	for a := 0; a < 2; a++ {
		if !tree.Closed(a) {
			t.Errorf("action %d not closed on an exhausted root", a)
		}
	}
	st.Play(0)
	tree.Advance(0)
	for a := 0; a < 2; a++ {
		if !tree.Closed(a) {
			t.Errorf("after Advance(0): action %d not closed", a)
		}
	}
	st.Undo()
	tree.Back()
	tree.DisableRootAction(1)
	if tree.Closed(1) {
		t.Error("a disabled action reports closed")
	}
}
