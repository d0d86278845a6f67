package rl

import (
	"fmt"
	"testing"

	"pbqprl/internal/ate"
	"pbqprl/internal/game"
	"pbqprl/internal/gcn"
	"pbqprl/internal/net"
	"pbqprl/internal/nn"
	"pbqprl/internal/tensor"
)

// forwardEval evaluates through the trainable pass and the masked
// softmax: what (*net.PBQPNet).Evaluate ran before it moved onto the
// inference engine, kept here as the reference the engine must match.
type forwardEval struct{ n *net.PBQPNet }

func (e forwardEval) Evaluate(view gcn.View) (tensor.Vec, float64) {
	logits, value := e.n.Forward(view)
	return nn.Softmax(logits, net.Mask(view)), value
}

// TestEngineSolvesLikeTrainablePass is the end-to-end pin of the
// evaluator switch: on the PRO1–PRO6 ATE programs the backtracking
// solver visits the same number of states and returns the same answer,
// bit for bit, whether its leaves are evaluated by the engine-backed
// net or by the trainable pass.
func TestEngineSolvesLikeTrainablePass(t *testing.T) {
	base := net.New(net.Config{M: 13, GCNLayers: 1, Hidden: 24, Blocks: 1, Seed: 7})
	for _, bench := range ate.Suite()[:6] {
		// increasing liberty solves all six within the budget; decreasing
		// liberty, under an untrained net, runs every one into MaxNodes
		// (its cheapest solve, PRO1's, takes 676 nodes)
		for _, run := range []struct {
			order    game.Order
			maxNodes int64
		}{{game.OrderIncLiberty, 4000}, {game.OrderDecLiberty, 500}} {
			cfg := Config{K: 25, Order: run.order, Backtrack: true, ReinvokeMCTS: true, MaxNodes: run.maxNodes}
			want := (&Solver{Net: forwardEval{base.Clone()}, Cfg: cfg}).Solve(bench.Graph)
			got := (&Solver{Net: base.Clone(), Cfg: cfg}).Solve(bench.Graph)
			name := fmt.Sprintf("%s %v", bench.Program.Name, run.order)
			if want.Feasible != (run.order == game.OrderIncLiberty) {
				t.Errorf("%s: feasible = %v; the pin no longer compares both a solved and an abandoned search", name, want.Feasible)
			}
			if got.States != want.States || got.Feasible != want.Feasible || got.Cost != want.Cost {
				t.Errorf("%s: engine (states %d, feasible %v, cost %v), trainable pass (states %d, feasible %v, cost %v)",
					name, got.States, got.Feasible, got.Cost, want.States, want.Feasible, want.Cost)
			}
			if len(got.Selection) != len(want.Selection) {
				t.Errorf("%s: selection lengths %d and %d", name, len(got.Selection), len(want.Selection))
				continue
			}
			for v := range want.Selection {
				if got.Selection[v] != want.Selection[v] {
					t.Errorf("%s: vertex %d colored %d by the engine, %d by the trainable pass",
						name, v, got.Selection[v], want.Selection[v])
					break
				}
			}
		}
	}
}
