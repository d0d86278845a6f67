// Package analysis is a small stdlib-only static-analysis framework for
// the project's domain invariants: determinism of encode paths,
// saturating ℝ∞ cost arithmetic, cancellation discipline in solvers,
// allocation-free hot paths, and the concurrency protocols (lock
// order, goroutine exits, atomic access, WaitGroup use). DESIGN.md §12
// keeps the census that decides which analyzers stay.
//
// It deliberately avoids golang.org/x/tools: packages are parsed with
// go/parser and type-checked with go/types, resolving module-internal
// imports through a source loader (Loader) and standard-library imports
// through go/importer's source importer. Analyzers receive a fully
// type-checked Pass and report position-accurate Diagnostics; findings
// can be suppressed line-by-line with
//
//	//pbqpvet:ignore <analyzer>[,<analyzer>...] <reason>
//
// placed on the offending line or the line directly above it. The
// cmd/pbqp-vet driver runs every analyzer over the module and exits
// nonzero on unsuppressed findings.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding: an analyzer name, a resolved source
// position, and a human-readable message.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// String renders the diagnostic in the conventional file:line:col form
// with the analyzer name in brackets.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.File, d.Line, d.Col, d.Message, d.Analyzer)
}

// Analyzer is one named check over type-checked code. Exactly one of
// Run and RunModule is set: Run analyzers see one package at a time,
// RunModule analyzers (the concurrency suite) see every loaded package
// at once so call graphs and sync-object identity thread across
// package boundaries.
type Analyzer struct {
	// Name identifies the analyzer in reports and in
	// //pbqpvet:ignore directives.
	Name string
	// Doc is a one-paragraph description of the invariant the
	// analyzer protects.
	Doc string
	// Run inspects the package via pass and reports findings with
	// pass.Reportf. A returned error aborts the whole vet run (it
	// means the analyzer itself failed, not that the code is bad).
	Run func(pass *Pass) error
	// RunModule inspects every loaded package in one pass; the
	// ModulePass carries the shared concurrency index (call graph,
	// sync-object identity) built once per vet run.
	RunModule func(pass *ModulePass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Info.TypeOf(e)
}

// ModulePass carries one module-level analyzer's view of every loaded
// package, plus the shared concurrency index.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkgs     []*Package
	Conc     *Conc

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes the analyzers over the loaded package, applies the
// package's //pbqpvet:ignore suppressions, and returns the surviving
// diagnostics sorted by position. Malformed suppression directives are
// themselves reported under the pseudo-analyzer name "pbqpvet".
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return RunModule([]*Package{pkg}, analyzers)
}

// RunModule executes the analyzers over every loaded package —
// per-package analyzers once per package, module analyzers once over
// the whole set with a shared concurrency index — applies every
// //pbqpvet:ignore suppression, and returns the surviving diagnostics
// in one deterministic file/line/col/analyzer order so repeated runs
// (and their -json artifacts) are byte-stable.
func RunModule(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	var sup suppressions
	for _, pkg := range pkgs {
		pkgSup, supDiags := collectSuppressions(pkg.Fset, pkg.Files)
		sup = sup.merge(pkgSup)
		diags = append(diags, supDiags...)
	}
	var conc *Conc
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		if conc == nil {
			conc = newConc(pkgs)
		}
		pass := &ModulePass{Analyzer: a, Fset: fsetOf(pkgs), Pkgs: pkgs, Conc: conc}
		if err := a.RunModule(pass); err != nil {
			return nil, fmt.Errorf("analysis: %s: %w", a.Name, err)
		}
		diags = append(diags, pass.diags...)
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
			diags = append(diags, pass.diags...)
		}
	}
	diags = sup.filter(diags)
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].File != diags[j].File {
			return diags[i].File < diags[j].File
		}
		if diags[i].Line != diags[j].Line {
			return diags[i].Line < diags[j].Line
		}
		if diags[i].Col != diags[j].Col {
			return diags[i].Col < diags[j].Col
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// fsetOf returns the packages' shared file set (every package of one
// loader resolves positions against the same set).
func fsetOf(pkgs []*Package) *token.FileSet {
	if len(pkgs) == 0 {
		return token.NewFileSet()
	}
	return pkgs[0].Fset
}
