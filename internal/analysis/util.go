package analysis

import (
	"go/types"
	"strings"
)

// isNamedType reports whether t is (after unaliasing) the named type
// pkg.name, where pkg matches either the full import path or a
// "/"-separated suffix of it. Suffix matching keeps the analyzers
// independent of the module path — "internal/cost" identifies the cost
// package whether the module is pbqprl or a fork.
func isNamedType(t types.Type, pkg, name string) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	p := obj.Pkg().Path()
	return p == pkg || strings.HasSuffix(p, "/"+pkg)
}

// isCost reports whether t is the cost.Cost extended-real type.
func isCost(t types.Type) bool { return isNamedType(t, "internal/cost", "Cost") }

// inCostPackage reports whether the pass's package is internal/cost
// itself, where raw extended-real arithmetic is the implementation.
func inCostPackage(p *Pass) bool {
	path := p.Pkg.Path()
	return path == "internal/cost" || strings.HasSuffix(path, "/internal/cost")
}
