// ATE translation: the workflow of Section II-B. A test-pattern program
// verified on one ATE must be re-allocated for a different ATE model
// with irregular register pairing, major-cycle constraints and no data
// memory — so allocation must succeed with zero spills or translation
// fails entirely.
//
// This example generates a synthetic product-level program, derives its
// PBQP graph (every cost zero or infinity), and finds a valid register
// assignment with the backtracking Deep-RL solver guided by plain MCTS
// (run examples/training or cmd/pbqp-train for a trained network).
package main

import (
	"context"
	"fmt"
	"os"

	"pbqprl/internal/ate"
	"pbqprl/internal/game"
	"pbqprl/internal/mcts"
	"pbqprl/internal/rl"
	"pbqprl/internal/solve/scholz"
)

func main() {
	mach := ate.DefaultMachine()
	prog, _ := ate.Generate(mach, ate.GenConfig{
		Name:      "DEMO",
		NumVRegs:  32,
		PairRatio: 0.35,
		HardRatio: 0.4,
		MaxLive:   10,
		Seed:      42,
	})
	fmt.Println("Test-pattern program to translate:")
	fmt.Print(prog)

	g, err := ate.BuildPBQP(prog)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	hard := 0
	for v := 0; v < g.NumVertices(); v++ {
		if g.Liberty(v) <= 4 {
			hard++
		}
	}
	fmt.Printf("\nPBQP graph: %d vertices, %d edges, m=%d, %d hard vertices (liberty <= 4)\n",
		g.NumVertices(), g.NumEdges(), g.M(), hard)

	// The original reduction solver usually fails here (it
	// approximates every high-degree vertex).
	if res := (scholz.Solver{}).Solve(g); !res.Feasible {
		fmt.Println("original (Scholz-Eckstein) solver: FAILED - translation would abort")
	} else {
		fmt.Println("original (Scholz-Eckstein) solver: found a solution")
	}

	// Deep-RL with backtracking (Section IV-E). With an untrained
	// (uniform-prior) evaluator, the increasing-liberty order keeps
	// conflicts chronological; a trained network (examples/training,
	// cmd/pbqp-train) unlocks the paper's preferred decreasing-liberty
	// order.
	s := &rl.Solver{Net: mcts.Uniform{}, Cfg: rl.Config{
		K:            25,
		Order:        game.OrderIncLiberty,
		Backtrack:    true,
		ReinvokeMCTS: true,
		MaxNodes:     1_000_000,
	}}
	res := s.SolveCtx(context.Background(), g)
	if !res.Feasible {
		fmt.Println("deep-rl solver: FAILED")
		os.Exit(1)
	}
	fmt.Printf("deep-rl solver: success, cost=%s, %d nodes, %.0f backtracks (%.0f levels jumped), %.0f dead ends, %.0f forced colors\n",
		res.Cost, res.States, res.Stats["backtracks"], res.Stats["jumps"], res.Stats["dead_ends"], res.Stats["forced"])
	fmt.Print("register assignment:")
	for v, r := range res.Selection {
		if v%8 == 0 {
			fmt.Print("\n  ")
		}
		fmt.Printf("v%-2d->r%-3d", v, r)
	}
	fmt.Println()
	if c := g.TotalCost(res.Selection); !c.IsZero() {
		fmt.Printf("assignment violates a constraint (cost %s)\n", c)
		os.Exit(1)
	}
	fmt.Println("assignment verified: every pairing and major-cycle constraint holds")
}
