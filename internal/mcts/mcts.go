// Package mcts implements the paper's Monte-Carlo tree search planner
// (Section IV-C, Algorithm 1): PUCT selection with the upper confidence
// bound of Equation 2, expansion of one leaf per simulation, a neural
// roll-out (the DNN evaluates new leaves; terminal states are scored by
// the game), and back-propagation of the leaf value along the selected
// path. The visit-count policy of Equation 3 is read off the root after
// k simulations, and the tree is reused across moves via Advance (and
// across take-backs via Back, which the backtracking solver uses).
package mcts

import (
	"context"
	"math"

	"pbqprl/internal/game"
	"pbqprl/internal/gcn"
	"pbqprl/internal/tensor"
)

// Evaluator supplies priors and values for non-terminal leaves; it is
// implemented by *net.PBQPNet, whose Evaluate runs on the read-only
// inference engine. The returned prior is the caller's: the tree keeps
// it on the node.
type Evaluator interface {
	Evaluate(view gcn.View) (prior tensor.Vec, value float64)
}

// The search constants of Equation 2: cPuct is the exploration
// constant, and eps sits under the square root so that the prior drives
// the very first selection.
const (
	cPuct = 1.25
	eps   = 1e-3
)

// Config tunes the search.
type Config struct {
	// LeafValue, when set, scores every position the search adds that
	// is not a dead end, finished ones included, in place of the DNN's
	// value and the game's TerminalValue; the DNN still supplies the
	// priors, and a dead end still scores -1. Minimization inference
	// sets it to game.State.HeuristicValue: its games are far deeper
	// than the simulation budget, and a weakly trained V-Net provides
	// no usable signal.
	LeafValue func(*game.State) float64
	// RetainParents keeps the abandoned parent (and its sibling
	// subtrees) reachable across Advance so that Back can walk the
	// chain upward — required by the backtracking solver, which
	// re-roots at the parent after a dead end. Off by default: Advance
	// then detaches the new root, releasing everything above and beside
	// it to the garbage collector, so per-episode memory is bounded by
	// the live subtree instead of growing with game depth.
	RetainParents bool
}

// node is one state in the partial game tree. Edge statistics (Q, N,
// prior) are stored on the parent, indexed by action.
type node struct {
	parent   *node
	expanded bool
	terminal bool
	deadEnd  bool    // terminal because the reduced graph is stuck
	value    float64 // v̂ from the DNN, or the terminal game value
	prior    tensor.Vec
	legal    []bool
	disabled []bool // actions masked by the backtracking solver; nil = none
	n        []int
	q        []float64
	children []*node
}

// actionOpen reports whether action a of nd is selectable: legal, not
// masked, and not leading to a child already known to be a dead end.
// (The graph manager detects dead ends on transition, so the planner
// never walks into one twice.)
func (nd *node) actionOpen(a int) bool {
	if !nd.legal[a] || (nd.disabled != nil && nd.disabled[a]) {
		return false
	}
	if c := nd.children[a]; c != nil && c.expanded && c.deadEnd {
		return false
	}
	return true
}

// Tree is an MCTS instance bound to one game.
type Tree struct {
	cfg   Config
	eval  Evaluator
	root  *node
	m     int
	nodes int64
}

// New creates an empty tree for a game with m colors.
func New(eval Evaluator, m int, cfg Config) *Tree {
	return &Tree{cfg: cfg, eval: eval, root: &node{}, m: m}
}

// Nodes returns the total number of nodes (states) generated in the
// game tree so far — the paper's Figure 6 metric.
func (t *Tree) Nodes() int64 { return t.nodes }

// Run performs k simulations (Algorithm 1) from the current root, which
// must correspond to state s. The state is mutated during simulation
// and restored before Run returns.
func (t *Tree) Run(s *game.State, k int) {
	t.RunCtx(context.Background(), s, k)
}

// RunCtx is Run under a context: the context is polled before every
// simulation, so cancellation lands within one simulation's latency
// (one root-to-leaf descent plus one evaluator call). It returns the
// number of simulations actually performed; the tree and state are
// always left consistent; a cancelled run simply carries less-visited
// root statistics.
func (t *Tree) RunCtx(ctx context.Context, s *game.State, k int) int {
	for i := 0; i < k; i++ {
		if ctx.Err() != nil {
			return i
		}
		t.simulate(s, t.root)
	}
	return k
}

// simulate is Algorithm 1: descend by UCB to an undiscovered leaf,
// expand and evaluate it, and back-propagate its value. It returns the
// value of the newly evaluated (or terminal) node from the perspective
// of the single player.
func (t *Tree) simulate(s *game.State, nd *node) float64 {
	if !nd.expanded {
		t.expand(s, nd)
		return nd.value
	}
	if nd.terminal {
		return nd.value
	}
	a := t.selectAction(nd)
	if a < 0 {
		// Every child is a known dead end (or masked/illegal), so the
		// node itself is exhausted. Mark it terminal so actionOpen
		// prunes it at the parent; without the mark, every later
		// simulation would re-descend into the spent subtree and burn
		// its share of the k-budget without ever expanding a node.
		nd.terminal = true
		nd.deadEnd = true
		nd.value = -1
		return -1
	}
	s.Play(a)
	child := nd.children[a]
	if child == nil {
		child = &node{parent: nd}
		nd.children[a] = child
	}
	v := t.simulate(s, child)
	s.Undo()
	nd.q[a] = (float64(nd.n[a])*nd.q[a] + v) / float64(nd.n[a]+1)
	nd.n[a]++
	return v
}

// expand appends nd to the tree: terminal states take the game result,
// other states are evaluated by the DNN (the roll-out phase), and
// Config.LeafValue overrides the value of both but a dead end's.
func (t *Tree) expand(s *game.State, nd *node) {
	if s.Done() || s.DeadEnd() {
		t.nodes++
		nd.expanded = true
		nd.terminal = true
		nd.deadEnd = s.DeadEnd()
		if t.cfg.LeafValue != nil && !nd.deadEnd {
			nd.value = t.cfg.LeafValue(s)
		} else {
			nd.value = s.TerminalValue()
		}
		return
	}
	prior, value := t.eval.Evaluate(s.View())
	if t.cfg.LeafValue != nil {
		value = t.cfg.LeafValue(s)
	}
	t.grow(s, nd, prior, value)
}

// grow appends nd, whose state s is not terminal, to the tree with the
// given prior and value.
func (t *Tree) grow(s *game.State, nd *node, prior tensor.Vec, value float64) {
	t.nodes++
	nd.expanded = true
	nd.prior = prior
	nd.value = value
	nd.legal = make([]bool, t.m)
	for a := range nd.legal {
		nd.legal[a] = s.Legal(a)
	}
	nd.n = make([]int, t.m)
	nd.q = make([]float64, t.m)
	nd.children = make([]*node, t.m)
}

// selectAction returns the legal, enabled action maximizing Equation 2,
// or -1 if none remains.
func (t *Tree) selectAction(nd *node) int {
	total := 0
	for _, n := range nd.n {
		total += n
	}
	sqrtTotal := math.Sqrt(eps + float64(total))
	best, bestU := -1, math.Inf(-1)
	for a := 0; a < t.m; a++ {
		if !nd.actionOpen(a) {
			continue
		}
		u := nd.q[a] + cPuct*nd.prior[a]*sqrtTotal/float64(1+nd.n[a])
		if u > bestU {
			best, bestU = a, u
		}
	}
	return best
}

// Policy returns π(a|s_root) of Equation 3: root visit counts normalized
// over legal, enabled actions. If no simulations reached any child it
// falls back to the prior. The root must be expanded (call Run first).
func (t *Tree) Policy() tensor.Vec {
	nd := t.root
	pi := make(tensor.Vec, t.m)
	if !nd.expanded || nd.terminal {
		return pi
	}
	total := 0.0
	for a := 0; a < t.m; a++ {
		if nd.actionOpen(a) {
			pi[a] = float64(nd.n[a])
			total += pi[a]
		}
	}
	if total == 0 {
		for a := 0; a < t.m; a++ {
			if nd.actionOpen(a) {
				pi[a] = nd.prior[a]
				total += pi[a]
			}
		}
	}
	if total > 0 {
		for a := range pi {
			pi[a] /= total
		}
	}
	return pi
}

// Advance moves the root to the child reached by action a, reusing the
// subtree and its statistics (the caller plays a on its state). Unless
// Config.RetainParents is set, the abandoned parent and every sibling
// subtree are detached so the garbage collector can reclaim them. A
// root the search has exhausted (no action left open) still has its
// children, so a caller can walk into them; an unexpanded root or a
// terminal state has none, and Advance panics there.
func (t *Tree) Advance(a int) {
	nd := t.root
	if nd.children == nil {
		panic("mcts: Advance on unexpanded or terminal root")
	}
	child := nd.children[a]
	if child == nil {
		child = &node{parent: nd}
		nd.children[a] = child
	}
	if !t.cfg.RetainParents {
		child.parent = nil
		nd.children = nil
	}
	t.root = child
}

// Back moves the root to its parent (the caller undoes the action on
// its state). It panics at the tree root, or whenever the parent chain
// was not retained (see Config.RetainParents).
func (t *Tree) Back() {
	if t.root.parent == nil {
		panic("mcts: Back at tree root (backtracking requires Config.RetainParents)")
	}
	t.root = t.root.parent
}

// DisableRootAction masks action a at the root so that neither
// simulation nor Policy considers it again — the backtracking solver's
// "that coloring led to a dead end" marker.
func (t *Tree) DisableRootAction(a int) {
	if t.root.disabled == nil {
		t.root.disabled = make([]bool, t.m)
	}
	t.root.disabled[a] = true
}

// Forced reports the root's only open action: a is that action when
// open, the number of open actions (see actionOpen), is one, and -1
// otherwise. An unexpanded root counts its legal actions, and when
// exactly one is legal it is expanded on the spot without an
// evaluation, under a one-hot prior on that action and a value nothing
// reads: the caller plays a forced action instead of searching it. s is
// the root's state, neither done nor at a dead end.
func (t *Tree) Forced(s *game.State) (a, open int) {
	nd := t.root
	a = -1
	switch {
	case !nd.expanded:
		for b := 0; b < t.m; b++ {
			if s.Legal(b) {
				a, open = b, open+1
			}
		}
		if open == 1 {
			prior := make(tensor.Vec, t.m)
			prior[a] = 1
			t.grow(s, nd, prior, 0)
		}
	case !nd.terminal:
		for b := 0; b < t.m; b++ {
			if nd.actionOpen(b) {
				a, open = b, open+1
			}
		}
	}
	if open != 1 {
		a = -1
	}
	return a, open
}

// Closed reports whether root action a was closed by the search itself:
// legal and not disabled, but leading to a child the tree has proven
// dead — a dead-end state, or a node with no action left open. Nothing
// selects a closed action again, so a caller that must explain why the
// root failed walks the closed subtree (Advance into it) instead.
func (t *Tree) Closed(a int) bool {
	nd := t.root
	return nd.legal[a] && (nd.disabled == nil || !nd.disabled[a]) && !nd.actionOpen(a)
}

// RootHasMove reports whether any legal, enabled action remains at the
// (expanded) root.
func (t *Tree) RootHasMove() bool {
	nd := t.root
	if !nd.expanded || nd.terminal {
		return false
	}
	for a := 0; a < t.m; a++ {
		if nd.actionOpen(a) {
			return true
		}
	}
	return false
}
