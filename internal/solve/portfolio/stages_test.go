package portfolio

import (
	"errors"
	"reflect"
	"testing"

	"pbqprl/internal/decomp"
	"pbqprl/internal/mcts"
	"pbqprl/internal/rl"
	"pbqprl/internal/solve"
	"pbqprl/internal/solve/scholz"
)

// TestBuilderNames pins the stage names every chain site accepts, the
// solver each builds, and how a decomp: stage's component parallelism
// follows from what it wraps.
func TestBuilderNames(t *testing.T) {
	evals := 0
	b := Builder{MaxStates: 99, K: 7, DecompWorkers: 4, Evaluator: func() mcts.Evaluator { evals++; return mcts.Uniform{} }}
	for name, want := range map[string]string{
		"brute": "brute", "scholz": "scholz", "liberty": "liberty", "anneal": "anneal",
		"rl": "deep-rl", "rl-bt": "deep-rl+backtrack",
		"decomp:scholz": "decomp(scholz)", "decomp:rl-bt": "decomp(deep-rl+backtrack)",
	} {
		sv, err := b.Stage(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sv.Name() != want {
			t.Errorf("%s builds %q, want %q", name, sv.Name(), want)
		}
	}
	if evals != 3 {
		t.Errorf("Evaluator called %d times for three rl stages", evals)
	}
	sv, _ := b.Stage("rl-bt")
	if cfg := sv.(*rl.Solver).Cfg; cfg.K != 7 || cfg.MaxNodes != 99 || !cfg.Backtrack || !cfg.ReinvokeMCTS {
		t.Errorf("rl-bt config %+v", cfg)
	}
	for name, workers := range map[string]int{"decomp:liberty": 4, "decomp:rl": 0, "decomp:decomp:brute": 0} {
		sv, err := b.Stage(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := sv.(*decomp.Solver).Workers; got != workers {
			t.Errorf("%s solves %d components at once, want %d", name, got, workers)
		}
	}
}

// TestBuilderErrors pins the error text of a bad chain.
func TestBuilderErrors(t *testing.T) {
	const unknown = `unknown solver "zebra" (want brute, scholz, liberty, anneal, rl, or rl-bt, optionally prefixed decomp:)`
	for _, names := range [][]string{{"zebra"}, {"scholz", "decomp:zebra"}} {
		if _, err := (Builder{}).Chain(names); err == nil || err.Error() != unknown {
			t.Errorf("Chain(%q) error %v", names, err)
		}
	}
	if _, err := (Builder{}).Chain(nil); err == nil || err.Error() != "empty solver chain" {
		t.Errorf("empty chain error %v", err)
	}
}

// TestBuilderMake pins the injection hook: Make replaces the built-in
// names, and the decomp: prefix still wraps what it returns.
func TestBuilderMake(t *testing.T) {
	injected := errors.New("injected")
	b := Builder{Make: func(name string) (solve.Solver, error) {
		if name == "fail" {
			return nil, injected
		}
		return scholz.Solver{}, nil
	}}
	chain, err := b.Chain([]string{"anything", "decomp:else"})
	if err != nil {
		t.Fatal(err)
	}
	if chain[0].Name() != "scholz" || chain[1].Name() != "decomp(scholz)" {
		t.Fatalf("chain %s, %s", chain[0].Name(), chain[1].Name())
	}
	if _, err := b.Stage("decomp:fail"); !errors.Is(err, injected) {
		t.Fatalf("error %v", err)
	}
}

// TestDefaultChain pins the chain pbqp-serve falls back to, which
// pbqp-solve spells -solver rl-bt,liberty,scholz, and that it builds.
func TestDefaultChain(t *testing.T) {
	names := SplitChain(DefaultChain)
	if want := []string{"rl-bt", "liberty", "scholz"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("SplitChain(DefaultChain) = %q, want %q", names, want)
	}
	if _, err := (Builder{}).Chain(names); err != nil {
		t.Fatal(err)
	}
	if got := SplitChain(" , "); got != nil {
		t.Fatalf("SplitChain of blanks = %q, want nil", got)
	}
}
