// Command pbqp-vet runs the project's domain-invariant static
// analyzers (internal/analysis) over the module:
//
//	costarith    no raw arithmetic or comparison on cost.Cost outside internal/cost
//	ctxpoll      every SolveCtx polls its context from each unbounded loop
//	determinism  no time.Now / global math/rand / map-order leaks in encode paths
//	lockorder    acyclic lock acquisition; no lock held across blocking ops
//
// Usage:
//
//	pbqp-vet [-json] [-counts] [-only analyzer,analyzer] [patterns...]
//
// Patterns are package directories; a trailing "/..." walks the tree
// (skipping testdata and vendor). With no pattern it vets "./...".
// Every requested package is loaded first and analyzed in one
// module-wide pass, so lockorder sees call graphs and sync-object
// identity across package boundaries. Findings are reported in one
// deterministic file/line/col/analyzer order — -json output is
// byte-stable run to run. Findings are suppressed line-by-line with
// "//pbqpvet:ignore <analyzer> <reason>" on or directly above the line;
// -counts appends a per-analyzer census of findings and suppression
// sites so suppression creep stays visible in review.
//
// Exit status: 0 clean, 1 findings, 2 load or usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"

	"pbqprl/internal/analysis"
)

const (
	exitOK       = 0
	exitFindings = 1
	exitUsage    = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("pbqp-vet", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array instead of text")
	only := fs.String("only", "", "comma-separated subset of analyzers to run")
	counts := fs.Bool("counts", false, "append per-analyzer totals of findings and //pbqpvet:ignore sites")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return exitOK
		}
		return exitUsage
	}

	analyzers := analysis.All()
	if *only != "" {
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			a := analysis.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "pbqp-vet: unknown analyzer %q\n", name)
				return exitUsage
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := expandPatterns(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pbqp-vet: %v\n", err)
		return exitUsage
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "pbqp-vet: %v\n", err)
		return exitUsage
	}
	var pkgs []*analysis.Package
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pbqp-vet: %v\n", err)
			return exitUsage
		}
		pkgs = append(pkgs, pkg)
	}
	findings, err := analysis.RunModule(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pbqp-vet: %v\n", err)
		return exitUsage
	}

	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []analysis.Diagnostic{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(os.Stderr, "pbqp-vet: %v\n", err)
			return exitUsage
		}
	} else {
		for _, d := range findings {
			fmt.Fprintln(out, d)
		}
	}
	if *counts {
		printCounts(out, analyzers, findings, analysis.IgnoreCensus(pkgs))
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(out, "pbqp-vet: %d finding(s)\n", len(findings))
		}
		return exitFindings
	}
	return exitOK
}

// printCounts renders the suppression census: per-analyzer totals of
// reported findings and //pbqpvet:ignore sites, in analyzer-name
// order, skipping all-zero rows.
func printCounts(out io.Writer, analyzers []*analysis.Analyzer, findings []analysis.Diagnostic, ignores map[string]int) {
	found := map[string]int{}
	for _, d := range findings {
		found[d.Analyzer]++
	}
	names := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		names = append(names, a.Name)
	}
	// Malformed-directive findings and ignores of analyzers outside the
	// -only selection still deserve a row.
	for name := range found {
		if !slices.Contains(names, name) {
			names = append(names, name)
		}
	}
	for name := range ignores {
		if !slices.Contains(names, name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%-12s %9s %9s\n", "analyzer", "findings", "ignores")
	for _, name := range names {
		if found[name] == 0 && ignores[name] == 0 {
			continue
		}
		fmt.Fprintf(out, "%-12s %9d %9d\n", name, found[name], ignores[name])
	}
}

// expandPatterns resolves package patterns to package directories.
// "dir/..." walks dir with the shared testdata-excluding walker; a bare
// pattern names a single package directory.
func expandPatterns(patterns []string) ([]string, error) {
	var dirs []string
	seen := map[string]bool{}
	for _, p := range patterns {
		if root, ok := strings.CutSuffix(p, "/..."); ok {
			if root == "" {
				root = "."
			}
			sub, err := analysis.PackageDirs(root)
			if err != nil {
				return nil, err
			}
			for _, d := range sub {
				if !seen[d] {
					seen[d] = true
					dirs = append(dirs, d)
				}
			}
			continue
		}
		if !seen[p] {
			seen[p] = true
			dirs = append(dirs, p)
		}
	}
	return dirs, nil
}
