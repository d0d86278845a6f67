package solve_test

import (
	"math/rand"
	"sync"
	"testing"

	"pbqprl/internal/decomp"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/randgraph"
	"pbqprl/internal/solve"
	"pbqprl/internal/solve/anneal"
	"pbqprl/internal/solve/brute"
	"pbqprl/internal/solve/liberty"
	"pbqprl/internal/solve/portfolio"
	"pbqprl/internal/solve/scholz"
)

// TestSolversShareInputReadOnly runs the solver matrix concurrently on
// one shared input graph. Clones, induced subgraphs and reduction
// records all share the input's edge matrices now, so a solver that
// wrote through one would corrupt its neighbours' problem: the input's
// CanonicalHash must be the same after every solve as before, and the
// race detector (CI runs this under -race) must stay silent.
func TestSolversShareInputReadOnly(t *testing.T) {
	dec := decomp.Wrap(scholz.Solver{})
	dec.Workers = 4
	solvers := []solve.Solver{
		brute.Solver{},
		liberty.Solver{},
		scholz.Solver{},
		anneal.Solver{Seed: 3},
		dec,
		portfolio.New(0, liberty.Solver{MaxStates: 50}, dec, scholz.Solver{}),
	}
	rng := rand.New(rand.NewSource(29))
	graphs := []*pbqp.Graph{
		// small and dense enough for brute, with reducible fringe
		randgraph.ErdosRenyi(rng, randgraph.Config{N: 12, M: 3, PEdge: 0.3, PInf: 0.05}),
		// several components and blocks, so decomp's workers run in parallel
		randgraph.LargeSparse(rng, randgraph.LargeSparseConfig{N: 16, M: 2, Components: 4, ClusterSize: 4, Chords: 1}),
	}
	for gi, g := range graphs {
		before, err := pbqp.CanonicalHash(g)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for _, s := range solvers {
			for rep := 0; rep < 2; rep++ {
				wg.Add(1)
				go func(s solve.Solver) {
					defer wg.Done()
					s.Solve(g)
					if after, err := pbqp.CanonicalHash(g); err != nil || after != before {
						t.Errorf("graph %d: input hash changed under %s (err %v)", gi, s.Name(), err)
					}
				}(s)
			}
		}
		wg.Wait()
		if err := g.Validate(); err != nil {
			t.Fatalf("graph %d: %v", gi, err)
		}
	}
}
