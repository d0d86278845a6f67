package portfolio

import (
	"fmt"
	"strings"

	"pbqprl/internal/decomp"
	"pbqprl/internal/game"
	"pbqprl/internal/mcts"
	"pbqprl/internal/rl"
	"pbqprl/internal/solve"
	"pbqprl/internal/solve/anneal"
	"pbqprl/internal/solve/brute"
	"pbqprl/internal/solve/liberty"
	"pbqprl/internal/solve/scholz"
)

// DefaultChain is the fallback chain pbqp-serve runs when a request
// selects none: the paper's Deep-RL solver with backtracking, then
// liberty enumeration, then Scholz–Eckstein.
const DefaultChain = "rl-bt,liberty,scholz"

// SplitChain splits a comma-separated chain spelling into stage names,
// trimming blanks and dropping empty names.
func SplitChain(spec string) []string {
	var names []string
	for _, name := range strings.Split(spec, ",") {
		if name = strings.TrimSpace(name); name != "" {
			names = append(names, name)
		}
	}
	return names
}

// Builder makes solvers by stage name: brute, scholz, liberty, anneal,
// rl and rl-bt (rl with backtracking). A "decomp:" prefix on any name
// (e.g. "decomp:scholz") wraps that stage in the big-graph
// decomposition pipeline of internal/decomp.
//
// Every call builds fresh instances: solver structs carry per-solve
// state, and each rl stage gets its own evaluator from Evaluator.
type Builder struct {
	// MaxStates is the search budget of brute and liberty and the node
	// budget of the rl stages.
	MaxStates int64
	// K is the MCTS simulations-per-action count of the rl stages.
	K int
	// Order is the coloring order of the rl stages.
	Order game.Order
	// Evaluator supplies the MCTS evaluator of an rl stage; it is called
	// once per rl stage built. Nil uses the uniform (untrained) prior.
	Evaluator func() mcts.Evaluator
	// DecompWorkers bounds how many components a decomp: stage over a
	// concurrency-safe solver (brute, scholz, liberty, anneal) solves in
	// parallel; ≤ 1 solves them one at a time. Every other decomp:
	// stage is sequential: an rl stage's evaluator is not safe for
	// concurrent use.
	DecompWorkers int
	// Make, when non-nil, builds every stage name without its decomp:
	// prefix in place of the names above; tests inject blocking or
	// panicking solvers through it.
	Make func(name string) (solve.Solver, error)
}

// Chain builds one solver per name, in order.
func (b Builder) Chain(names []string) ([]solve.Solver, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("empty solver chain")
	}
	chain := make([]solve.Solver, 0, len(names))
	for _, name := range names {
		sv, err := b.Stage(name)
		if err != nil {
			return nil, err
		}
		chain = append(chain, sv)
	}
	return chain, nil
}

// Stage builds the solver one stage name selects.
func (b Builder) Stage(name string) (solve.Solver, error) {
	if inner, ok := strings.CutPrefix(name, "decomp:"); ok {
		sv, err := b.Stage(inner)
		if err != nil {
			return nil, err
		}
		d := decomp.Wrap(sv)
		switch sv.(type) {
		case brute.Solver, scholz.Solver, liberty.Solver, anneal.Solver:
			d.Workers = b.DecompWorkers
		}
		return d, nil
	}
	if b.Make != nil {
		return b.Make(name)
	}
	switch name {
	case "brute":
		return brute.Solver{MaxStates: b.MaxStates}, nil
	case "scholz":
		return scholz.Solver{}, nil
	case "liberty":
		return liberty.Solver{MaxStates: b.MaxStates}, nil
	case "anneal":
		return anneal.Solver{}, nil
	case "rl", "rl-bt":
		var ev mcts.Evaluator = mcts.Uniform{}
		if b.Evaluator != nil {
			ev = b.Evaluator()
		}
		return &rl.Solver{Net: ev, Cfg: rl.Config{
			K:            b.K,
			Order:        b.Order,
			Backtrack:    name == "rl-bt",
			ReinvokeMCTS: true,
			MaxNodes:     b.MaxStates,
		}}, nil
	default:
		return nil, fmt.Errorf("unknown solver %q (want brute, scholz, liberty, anneal, rl, or rl-bt, optionally prefixed decomp:)", name)
	}
}
