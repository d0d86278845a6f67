package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseSrc(t *testing.T, src string) (*token.FileSet, []Diagnostic, suppressions) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "sup.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sup, bad := collectSuppressions(fset, []*ast.File{f})
	return fset, bad, sup
}

func TestMalformedDirectives(t *testing.T) {
	cases := []struct {
		name, directive string
	}{
		{"missing reason", "//pbqpvet:ignore costarith"},
		{"missing name and reason", "//pbqpvet:ignore"},
		{"only commas", "//pbqpvet:ignore ,, some reason"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := "package p\n\n" + tc.directive + "\nvar x = 1\n"
			_, bad, sup := parseSrc(t, src)
			if len(bad) != 1 {
				t.Fatalf("got %d malformed diagnostics, want 1: %v", len(bad), bad)
			}
			if bad[0].Analyzer != "pbqpvet" || !strings.Contains(bad[0].Message, "malformed suppression") {
				t.Errorf("unexpected diagnostic %+v", bad[0])
			}
			if len(sup) != 0 {
				t.Errorf("malformed directive still registered a suppression: %v", sup)
			}
		})
	}
}

func TestWellFormedDirectiveCoversTwoLines(t *testing.T) {
	src := "package p\n\n//pbqpvet:ignore costarith,determinism the reason\nvar x = 1\n"
	_, bad, sup := parseSrc(t, src)
	if len(bad) != 0 {
		t.Fatalf("unexpected malformed diagnostics: %v", bad)
	}
	for _, line := range []int{3, 4} {
		for _, name := range []string{"costarith", "determinism"} {
			if !sup["sup.go"][line][name] {
				t.Errorf("line %d analyzer %s not suppressed", line, name)
			}
		}
	}
	if sup["sup.go"][5]["costarith"] {
		t.Error("suppression leaked past the following line")
	}
	kept := sup.filter([]Diagnostic{
		{Analyzer: "costarith", File: "sup.go", Line: 4},
		{Analyzer: "lockorder", File: "sup.go", Line: 4},
		{Analyzer: "costarith", File: "sup.go", Line: 9},
	})
	if len(kept) != 2 {
		t.Fatalf("filter kept %d diagnostics, want 2: %v", len(kept), kept)
	}
	if kept[0].Analyzer != "lockorder" || kept[1].Line != 9 {
		t.Errorf("filter kept the wrong diagnostics: %v", kept)
	}
}

func TestSplitDirective(t *testing.T) {
	names, reason := splitDirective(" a,b  some reason here ")
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("names = %v", names)
	}
	if reason != "some reason here" {
		t.Errorf("reason = %q", reason)
	}
}
