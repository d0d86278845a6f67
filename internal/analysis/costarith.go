package analysis

import (
	"go/ast"
	"go/token"
)

// CostArith guards the saturating ℝ∞ arithmetic of Equation 1: outside
// internal/cost, a raw `+` on two cost.Cost values can walk a cost out
// of the reserved infinite range (inf + x must stay inf), and a raw
// `==` distinguishes representations of infinity that are semantically
// equal. All arithmetic and equality on costs must go through the cost
// package's methods (Add, Less, IsInf, Vector.Equal).
var CostArith = &Analyzer{
	Name: "costarith",
	Run:  runCostArith,
}

// costArithOps are the operators that bypass saturation (arithmetic)
// or infinite-representation equality (comparison). Ordering operators
// <, <=, >, >= are equally unsafe on mixed finite/infinite values and
// are included: Cost.Less is the one true comparison.
var costArithOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true, token.MUL: true, token.QUO: true,
	token.EQL: true, token.NEQ: true,
	token.LSS: true, token.LEQ: true, token.GTR: true, token.GEQ: true,
}

var costAssignOps = map[token.Token]bool{
	token.ADD_ASSIGN: true, token.SUB_ASSIGN: true,
	token.MUL_ASSIGN: true, token.QUO_ASSIGN: true,
}

func runCostArith(pass *Pass) error {
	if inCostPackage(pass) {
		return nil
	}
	suggest := func(op token.Token) string {
		switch op {
		case token.ADD, token.ADD_ASSIGN:
			return "use Cost.Add, which saturates at Inf"
		case token.EQL, token.NEQ:
			return "use IsInf/Vector.Equal; infinite representations differ bitwise"
		case token.LSS, token.LEQ, token.GTR, token.GEQ:
			return "use Cost.Less, which orders Inf above every finite cost"
		default:
			return "route it through internal/cost so ℝ∞ saturation is preserved"
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if costArithOps[n.Op] && (isCost(pass.TypeOf(n.X)) || isCost(pass.TypeOf(n.Y))) {
					pass.Reportf(n.OpPos, "raw %s on cost.Cost bypasses extended-real semantics; %s", n.Op, suggest(n.Op))
				}
			case *ast.AssignStmt:
				if costAssignOps[n.Tok] && len(n.Lhs) == 1 && isCost(pass.TypeOf(n.Lhs[0])) {
					pass.Reportf(n.TokPos, "raw %s on cost.Cost bypasses extended-real semantics; %s", n.Tok, suggest(n.Tok))
				}
			case *ast.IncDecStmt:
				if isCost(pass.TypeOf(n.X)) {
					pass.Reportf(n.TokPos, "raw %s on cost.Cost bypasses extended-real semantics; %s", n.Tok, suggest(n.Tok))
				}
			}
			return true
		})
	}
	return nil
}
