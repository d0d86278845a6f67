package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ctxrootMarker designates a context-taking function as an additional
// ctxpoll root: everything reachable from it is held to the same
// polling contract as a SolveCtx implementation. Written as a
// doc-comment line, optionally followed by a reason:
//
//	//pbqpvet:ctxroot bounded retry loop must stay cancellable
//	func (r *Router) forward(ctx context.Context, ...) ...
//
// Serving-path code (the router's forward/retry loops, health probes)
// is not reachable from any SolveCtx, but a forgotten poll there turns
// a request deadline into a hang just the same — the marker opts those
// call trees into the sweep.
const ctxrootMarker = "pbqpvet:ctxroot"

// CtxPoll enforces the solve.Solver cancellation contract: a SolveCtx
// implementation must actually poll its context, and every unbounded
// loop reachable from it (same-package static calls) must contain a
// poll — a ctx.Err()/ctx.Done() check, a call to a same-package helper
// that polls, or delegation to a callee that receives the context.
// Counting loops (init; cond; post) and range loops over non-channel
// operands are bounded by data size and exempt; `for {}` and
// condition-only loops are where a forgotten poll turns a deadline into
// a hang. Functions marked //pbqpvet:ctxroot are swept as additional
// roots under the same rules.
var CtxPoll = &Analyzer{
	Name: "ctxpoll",
	Doc: "every SolveCtx implementation (and every //pbqpvet:ctxroot " +
		"function) must reach a ctx.Err()/ctx.Done() check from each " +
		"unbounded loop so cancellation can interrupt the work",
	Run: runCtxPoll,
}

func runCtxPoll(pass *Pass) error {
	c := &ctxChecker{
		pass:     pass,
		decls:    map[*types.Func]*ast.FuncDecl{},
		memo:     map[*types.Func]int{},
		reported: map[*ast.FuncDecl]bool{},
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
					c.decls[obj] = fd
				}
			}
		}
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			isSolve := fd.Recv != nil && fd.Name.Name == "SolveCtx" && c.hasCtxParam(fd)
			isMarked := hasCtxrootMarker(fd)
			if isMarked && !c.hasCtxParam(fd) {
				pass.Reportf(fd.Pos(), "function marked //pbqpvet:ctxroot takes no context.Context; the marker asserts a cancellation contract it cannot honor")
				continue
			}
			if !isSolve && !isMarked {
				continue
			}
			if !c.polls(fd.Body) {
				if isSolve {
					pass.Reportf(fd.Pos(), "SolveCtx implementation never checks its context; cancellation and deadlines are silently ignored")
				} else {
					pass.Reportf(fd.Pos(), "function marked //pbqpvet:ctxroot never checks its context; cancellation and deadlines are silently ignored")
				}
				continue
			}
			obj := pass.Info.Defs[fd.Name].(*types.Func)
			for _, rd := range c.reachable(obj) {
				c.checkLoops(rd)
			}
		}
	}
	return nil
}

// hasCtxrootMarker reports whether fd's doc comment contains a
// //pbqpvet:ctxroot line (a trailing reason after the marker is
// allowed and encouraged).
func hasCtxrootMarker(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, cm := range fd.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(cm.Text, "//"))
		if text == ctxrootMarker || strings.HasPrefix(text, ctxrootMarker+" ") {
			return true
		}
	}
	return false
}

type ctxChecker struct {
	pass     *Pass
	decls    map[*types.Func]*ast.FuncDecl
	memo     map[*types.Func]int // 0 unknown, 1 in progress, 2 polls, 3 does not poll
	reported map[*ast.FuncDecl]bool
}

// hasCtxParam reports whether fd takes a context.Context parameter.
func (c *ctxChecker) hasCtxParam(fd *ast.FuncDecl) bool {
	for _, field := range fd.Type.Params.List {
		if isContext(c.pass.TypeOf(field.Type)) {
			return true
		}
	}
	return false
}

// polls reports whether node contains a context poll: a direct
// .Err()/.Done() call on a context, delegation of a context to any
// callee, or a call to a same-package function that itself polls.
func (c *ctxChecker) polls(node ast.Node) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok &&
			(sel.Sel.Name == "Err" || sel.Sel.Name == "Done") && isContext(c.pass.TypeOf(sel.X)) {
			found = true
			return false
		}
		for _, arg := range call.Args {
			if isContext(c.pass.TypeOf(arg)) {
				found = true
				return false
			}
		}
		if fn := pkgFunc(c.pass.Info, call); fn != nil && c.funcPolls(fn) {
			found = true
			return false
		}
		return true
	})
	return found
}

// funcPolls is polls over a whole same-package function body, memoized
// and cycle-safe (a recursive cycle with no poll anywhere resolves to
// false).
func (c *ctxChecker) funcPolls(fn *types.Func) bool {
	switch c.memo[fn] {
	case 1, 3:
		return false
	case 2:
		return true
	}
	fd, ok := c.decls[fn]
	if !ok {
		return false
	}
	c.memo[fn] = 1
	result := c.polls(fd.Body)
	if result {
		c.memo[fn] = 2
	} else {
		c.memo[fn] = 3
	}
	return result
}

// reachable returns the same-package function declarations reachable
// from root through static calls, root included (the shared
// reachability kernel in conc.go).
func (c *ctxChecker) reachable(root *types.Func) []*ast.FuncDecl {
	return reachableDecls(c.pass.Info, c.decls, root)
}

// checkLoops reports every unbounded loop in fd whose body cannot reach
// a context poll. Each declaration is checked once even when it is
// reachable from several SolveCtx implementations.
func (c *ctxChecker) checkLoops(fd *ast.FuncDecl) {
	if c.reported[fd] {
		return
	}
	c.reported[fd] = true
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch loop := n.(type) {
		case *ast.ForStmt:
			bounded := loop.Init != nil && loop.Cond != nil && loop.Post != nil
			if !bounded && !c.polls(loop.Body) {
				c.pass.Reportf(loop.Pos(), "unbounded loop reachable from a ctxpoll root (SolveCtx or //pbqpvet:ctxroot) never polls the context; a deadline cannot interrupt it (poll ctx.Err() every solve.CheckInterval states)")
			}
		case *ast.RangeStmt:
			if t := c.pass.TypeOf(loop.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan && !c.polls(loop.Body) {
					c.pass.Reportf(loop.Pos(), "channel-range loop reachable from a ctxpoll root (SolveCtx or //pbqpvet:ctxroot) never polls the context; a deadline cannot interrupt it")
				}
			}
		}
		return true
	})
}
