package experiments

import (
	"fmt"
	"io"

	"pbqprl/internal/ate"
	"pbqprl/internal/game"
	"pbqprl/internal/rl"
	"pbqprl/internal/solve/liberty"
	"pbqprl/internal/solve/scholz"
)

// rlConfig builds the standard inference configuration used across the
// ATE experiments.
func rlConfig(k int, order game.Order, backtrack bool) rl.Config {
	return rlConfigBudget(k, order, backtrack, 100_000)
}

// rlConfigBudget allows per-experiment node budgets: Figure 6 sweeps 80
// solver configurations and keeps failures cheap, while the
// search-space comparison gives the solver room on the biggest
// programs.
func rlConfigBudget(k int, order game.Order, backtrack bool, budget int64) rl.Config {
	return rl.Config{
		K:            k,
		Order:        order,
		Backtrack:    backtrack,
		ReinvokeMCTS: true,
		MaxNodes:     budget,
		Seed:         1,
	}
}

// Fig6Variant identifies one bar group of Figure 6.
type Fig6Variant struct {
	Label     string
	Order     game.Order
	Backtrack bool
}

// Fig6Variants returns the paper's four variants: (a) no backtracking,
// (b) backtracking + random order, (c) + increasing liberty, (d) +
// decreasing liberty.
func Fig6Variants() []Fig6Variant {
	return []Fig6Variant{
		{Label: "(a) no-backtrack", Order: game.OrderDecLiberty, Backtrack: false},
		{Label: "(b) bt+random", Order: game.OrderRandom, Backtrack: true},
		{Label: "(c) bt+inc-liberty", Order: game.OrderIncLiberty, Backtrack: true},
		{Label: "(d) bt+dec-liberty", Order: game.OrderDecLiberty, Backtrack: true},
	}
}

// Fig6Cell is one bar of Figure 6.
type Fig6Cell struct {
	Nodes   int64
	Success bool
}

// Fig6Row is one program's bars for one k_infer.
type Fig6Row struct {
	Program string
	KInfer  int
	Cells   []Fig6Cell // indexed like Fig6Variants
}

// Fig6 reproduces experiment E1: the total number of game-tree nodes
// generated per ATE program for the four solver variants, at the two
// inference budgets of the figure (k_infer 25 and 50), with a network
// trained at k_train = 50. Failures carry the X mark via Success=false.
func Fig6(progress func(string)) []Fig6Row {
	n := TrainedNet(SpecK50(), progress)
	var rows []Fig6Row
	for _, kInfer := range []int{25, 50} {
		for _, b := range ate.Suite() {
			row := Fig6Row{Program: b.Program.Name, KInfer: kInfer}
			for _, v := range Fig6Variants() {
				s := &rl.Solver{Net: n, Cfg: rlConfigBudget(kInfer, v.Order, v.Backtrack, 25_000)}
				res := s.Solve(b.Graph)
				row.Cells = append(row.Cells, Fig6Cell{Nodes: res.States, Success: res.Feasible})
				if progress != nil {
					progress(fmt.Sprintf("fig6 %s k=%d %s: nodes=%d ok=%v",
						b.Program.Name, kInfer, v.Label, res.States, res.Feasible))
				}
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// PrintFig6 renders the rows as the two panels of Figure 6.
func PrintFig6(w io.Writer, rows []Fig6Row) {
	variants := Fig6Variants()
	for _, kInfer := range []int{25, 50} {
		fmt.Fprintf(w, "\nFigure 6 — nodes generated (k_infer = %d); X = no valid solution\n", kInfer)
		fmt.Fprintf(w, "%-8s", "program")
		for _, v := range variants {
			fmt.Fprintf(w, " %18s", v.Label)
		}
		fmt.Fprintln(w)
		for _, r := range rows {
			if r.KInfer != kInfer {
				continue
			}
			fmt.Fprintf(w, "%-8s", r.Program)
			for _, c := range r.Cells {
				mark := ""
				if !c.Success {
					mark = " X"
				}
				fmt.Fprintf(w, " %16d%2s", c.Nodes, mark)
			}
			fmt.Fprintln(w)
		}
	}
}

// ATESuccessRow is one (k_train, k_infer) line of experiment E2.
type ATESuccessRow struct {
	KTrain, KInfer int
	Failures       int
	FailedPrograms []string
}

// ATESuccess reproduces experiment E2: Deep-RL without backtracking for
// the paper's (k_train, k_infer) pairs; the paper reports 7 / 1 / 0
// failing programs for (50,25) / (50,50) / (100,150).
func ATESuccess(progress func(string)) []ATESuccessRow {
	pairs := []struct {
		spec   TrainSpec
		kinfer int
	}{
		{SpecK50(), 25},
		{SpecK50(), 50},
		{SpecK100(), 150},
	}
	var rows []ATESuccessRow
	for _, p := range pairs {
		n := TrainedNet(p.spec, progress)
		row := ATESuccessRow{KTrain: p.spec.KTrain, KInfer: p.kinfer}
		for _, b := range ate.Suite() {
			// one-way runs use the increasing-liberty order at laptop
			// scale (see EXPERIMENTS.md E1/E2)
			s := &rl.Solver{Net: n, Cfg: rlConfig(p.kinfer, game.OrderIncLiberty, false)}
			if !s.Solve(b.Graph).Feasible {
				row.Failures++
				row.FailedPrograms = append(row.FailedPrograms, b.Program.Name)
			}
		}
		if progress != nil {
			progress(fmt.Sprintf("ate-k (%d,%d): %d failures %v", row.KTrain, row.KInfer, row.Failures, row.FailedPrograms))
		}
		rows = append(rows, row)
	}
	return rows
}

// PrintATESuccess renders E2.
func PrintATESuccess(w io.Writer, rows []ATESuccessRow) {
	fmt.Fprintln(w, "\nSection V-B — Deep-RL without backtracking: failing programs per (k_train, k_infer)")
	fmt.Fprintln(w, "(paper: (50,25) fails 7, (50,50) fails 1, (100,150) fails 0)")
	for _, r := range rows {
		fmt.Fprintf(w, "(%3d,%3d): %d failures %v\n", r.KTrain, r.KInfer, r.Failures, r.FailedPrograms)
	}
}

// SearchSpaceRow compares explored states per program (experiment E3).
type SearchSpaceRow struct {
	Program       string
	ScholzOK      bool
	LibertyStates int64
	LibertyOK     bool
	RLNodes       int64
	RLOK          bool
	Ratio         float64 // LibertyStates / RLNodes
}

// SearchSpace reproduces experiments E3 and E9: the original solver's
// failures, the liberty enumeration's explored states, and the Deep-RL
// (variant c) node counts, per ATE program.
func SearchSpace(progress func(string)) []SearchSpaceRow {
	n := TrainedNet(SpecK50(), progress)
	var rows []SearchSpaceRow
	for _, b := range ate.Suite() {
		row := SearchSpaceRow{Program: b.Program.Name}
		row.ScholzOK = (scholz.Solver{}).Solve(b.Graph).Feasible
		lres := (liberty.Solver{MaxStates: 50_000_000}).Solve(b.Graph)
		row.LibertyStates, row.LibertyOK = lres.States, lres.Feasible
		// variant (c): backtracking with the increasing-liberty order.
		// At laptop training scale it is the variant that, like the
		// paper's solvers, succeeds on every program; see EXPERIMENTS.md
		// on the dec-liberty variant's budget sensitivity.
		s := &rl.Solver{Net: n, Cfg: rlConfig(25, game.OrderIncLiberty, true)}
		rres := s.Solve(b.Graph)
		row.RLNodes, row.RLOK = rres.States, rres.Feasible
		if row.RLNodes > 0 {
			row.Ratio = float64(row.LibertyStates) / float64(row.RLNodes)
		}
		if progress != nil {
			progress(fmt.Sprintf("searchspace %s: scholz=%v liberty=%d(%v) rl=%d(%v) ratio=%.2f",
				row.Program, row.ScholzOK, row.LibertyStates, row.LibertyOK, row.RLNodes, row.RLOK, row.Ratio))
		}
		rows = append(rows, row)
	}
	return rows
}

// PrintSearchSpace renders E3/E9.
func PrintSearchSpace(w io.Writer, rows []SearchSpaceRow) {
	fmt.Fprintln(w, "\nSection V-B — search space: liberty enumeration states vs Deep-RL+backtracking nodes")
	fmt.Fprintln(w, "(paper: original solver fails 9/10; ratio 3,500–13,000, e.g. 19.8M vs 5.6K on PRO10)")
	fmt.Fprintf(w, "%-8s %-8s %14s %14s %10s\n", "program", "scholz", "liberty", "deep-rl+bt", "ratio")
	for _, r := range rows {
		mark := func(ok bool) string {
			if ok {
				return ""
			}
			return " X"
		}
		fmt.Fprintf(w, "%-8s %-8v %12d%2s %12d%2s %10.2f\n",
			r.Program, r.ScholzOK, r.LibertyStates, mark(r.LibertyOK), r.RLNodes, mark(r.RLOK), r.Ratio)
	}
}

// DeadEndRow is one program of the E4 ablation.
type DeadEndRow struct {
	Program               string
	WithMCTS, WithoutMCTS int64
	OKWithMCTS, OKWithout bool
}

// DeadEndAblation reproduces experiment E4: variant (c) at k_infer = 25
// with and without re-invoking MCTS at the parent of a dead end. The
// paper found no tangible difference.
func DeadEndAblation(progress func(string)) []DeadEndRow {
	n := TrainedNet(SpecK50(), progress)
	var rows []DeadEndRow
	for _, b := range ate.Suite() {
		row := DeadEndRow{Program: b.Program.Name}
		with := &rl.Solver{Net: n, Cfg: rlConfigBudget(25, game.OrderIncLiberty, true, 40_000)}
		res := with.Solve(b.Graph)
		row.WithMCTS, row.OKWithMCTS = res.States, res.Feasible
		cfg := rlConfigBudget(25, game.OrderIncLiberty, true, 40_000)
		cfg.ReinvokeMCTS = false
		without := &rl.Solver{Net: n, Cfg: cfg}
		res = without.Solve(b.Graph)
		row.WithoutMCTS, row.OKWithout = res.States, res.Feasible
		if progress != nil {
			progress(fmt.Sprintf("deadend %s: with=%d(%v) without=%d(%v)",
				row.Program, row.WithMCTS, row.OKWithMCTS, row.WithoutMCTS, row.OKWithout))
		}
		rows = append(rows, row)
	}
	return rows
}

// PrintDeadEnd renders E4.
func PrintDeadEnd(w io.Writer, rows []DeadEndRow) {
	fmt.Fprintln(w, "\nSection V-B — dead-end ablation: re-invoke MCTS at the parent vs next-best action")
	fmt.Fprintf(w, "%-8s %14s %14s\n", "program", "re-invoke", "next-best")
	for _, r := range rows {
		mark := func(ok bool) string {
			if ok {
				return ""
			}
			return " X"
		}
		fmt.Fprintf(w, "%-8s %12d%2s %12d%2s\n", r.Program,
			r.WithMCTS, mark(r.OKWithMCTS), r.WithoutMCTS, mark(r.OKWithout))
	}
}

// KTradeoffRow is experiment E5: thinking more in training vs inference.
type KTradeoffRow struct {
	Label      string
	TotalNodes int64
	Failures   int
}

// KTradeoff reproduces experiment E5: (k_train=100, k_infer=20) vs
// (k_train=50, k_infer=25); the paper reports up to 10 % fewer nodes
// for the higher-k_train network.
func KTradeoff(progress func(string)) []KTradeoffRow {
	configs := []struct {
		label  string
		spec   TrainSpec
		kinfer int
	}{
		{"(50,25)", SpecK50(), 25},
		{"(100,20)", SpecK100(), 20},
	}
	var rows []KTradeoffRow
	for _, c := range configs {
		n := TrainedNet(c.spec, progress)
		row := KTradeoffRow{Label: c.label}
		for _, b := range ate.Suite() {
			s := &rl.Solver{Net: n, Cfg: rlConfigBudget(c.kinfer, game.OrderIncLiberty, true, 40_000)}
			res := s.Solve(b.Graph)
			row.TotalNodes += res.States
			if !res.Feasible {
				row.Failures++
			}
		}
		if progress != nil {
			progress(fmt.Sprintf("ktradeoff %s: nodes=%d failures=%d", row.Label, row.TotalNodes, row.Failures))
		}
		rows = append(rows, row)
	}
	return rows
}

// PrintKTradeoff renders E5.
func PrintKTradeoff(w io.Writer, rows []KTradeoffRow) {
	fmt.Fprintln(w, "\nSection V-B — k_train/k_infer trade-off (total nodes over PRO1-10, backtracking, inc-liberty)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s nodes=%-10d failures=%d\n", r.Label, r.TotalNodes, r.Failures)
	}
}
