package main

import (
	"fmt"

	"pbqprl/internal/pbqp"
	"pbqprl/internal/solve"
)

// checkResult verifies a solver's answer against the harness's own copy
// of the graph: complete, feasible, every color in range, and a reported
// cost equal to what the selection costs on that copy.
func checkResult(g *pbqp.Graph, res solve.Result) error {
	if !res.Feasible || res.Truncated {
		return fmt.Errorf("feasible=%v truncated=%v", res.Feasible, res.Truncated)
	}
	if len(res.Selection) != g.NumVertices() {
		return fmt.Errorf("selection has %d entries for %d vertices", len(res.Selection), g.NumVertices())
	}
	for u, a := range res.Selection {
		if a < 0 || a >= g.M() {
			return fmt.Errorf("vertex %d has color %d of %d", u, a, g.M())
		}
	}
	total := g.TotalCost(res.Selection)
	if total.IsInf() {
		return fmt.Errorf("selection has infinite cost")
	}
	if total.Less(res.Cost) || res.Cost.Less(total) {
		return fmt.Errorf("reported cost %v, selection costs %v", res.Cost, total)
	}
	return nil
}
