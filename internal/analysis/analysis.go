// Package analysis is a small stdlib-only static-analysis framework for
// the project's one domain invariant no test catches: saturating ℝ∞
// cost arithmetic (CostArith). DESIGN.md §12 keeps the mutation census
// that decides which analyzers stay.
//
// It deliberately avoids golang.org/x/tools: packages are parsed with
// go/parser and type-checked with go/types, resolving module-internal
// imports through a source loader (Loader) and standard-library imports
// through go/importer's source importer. Analyzers receive a fully
// type-checked Pass and report position-accurate Diagnostics. A finding
// cannot be waived, only fixed: the cmd/pbqp-vet command runs CostArith
// over the module, package by package, and exits nonzero on any
// finding.
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

// Analyzer is one named check over one type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in reports.
	Name string
	// Run inspects the package via pass and reports findings with
	// pass.Reportf. A returned error aborts the whole vet run (it
	// means the analyzer itself failed, not that the code is bad).
	Run func(pass *Pass) error
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

// Run executes analyzer a over each package in turn and returns the
// diagnostics in one deterministic file/line/col order, so repeated
// runs (and their -json artifacts) are byte-stable.
func Run(pkgs []*Package, a *Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
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
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].File != diags[j].File {
			return diags[i].File < diags[j].File
		}
		if diags[i].Line != diags[j].Line {
			return diags[i].Line < diags[j].Line
		}
		return diags[i].Col < diags[j].Col
	})
	return diags, nil
}
