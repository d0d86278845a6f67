// Command pbqp-vet runs the project's domain-invariant static
// analyzers (internal/analysis) over the module:
//
//	costarith  no raw arithmetic or comparison on cost.Cost outside internal/cost
//	lockorder  acyclic lock acquisition; no lock held across blocking ops
//
// Usage:
//
//	pbqp-vet [-json] [-only analyzer,analyzer] [patterns...]
//
// Patterns are package directories; a trailing "/..." walks the tree
// (skipping testdata and vendor). With no pattern it vets "./...".
// Every requested package is loaded first and analyzed in one
// module-wide pass, so lockorder sees call graphs and sync-object
// identity across package boundaries. Findings are reported in one
// deterministic file/line/col/analyzer order — -json output is
// byte-stable run to run. A finding cannot be waived, only fixed.
//
// Exit status: 0 clean, 1 findings, 2 load or usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
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
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(out, "pbqp-vet: %d finding(s)\n", len(findings))
		}
		return exitFindings
	}
	return exitOK
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
