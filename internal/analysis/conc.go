package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Concurrency index of the lockorder analyzer: a module-wide inventory
// of function bodies — named declarations plus function literals, with
// go-spawned literals split out as roots of their own asynchronous
// flows — and sync-object identity, which resolves an expression like
// b.mu.Lock() to the *types.Var of the mutex field so "which lock" is a
// stable fact across packages (the loader memoizes type-checked
// packages, so field objects are shared module-wide), which lets lock
// facts follow calls across package boundaries.

// funcUnit is one analyzable body: a named function or method, or a
// function literal. Go-spawned literals are flagged because their
// bodies run asynchronously: their lock acquisitions are not ordered
// after the spawner's held locks.
type funcUnit struct {
	pkg       *Package
	decl      *ast.FuncDecl // nil for literals
	lit       *ast.FuncLit  // nil for declarations
	parent    *funcUnit     // enclosing unit for literals
	goSpawned bool
}

// body returns the unit's statement block.
func (u *funcUnit) body() *ast.BlockStmt {
	if u.decl != nil {
		return u.decl.Body
	}
	return u.lit.Body
}

// name renders the unit for diagnostics.
func (u *funcUnit) name() string {
	if u.decl != nil {
		return u.decl.Name.Name
	}
	if u.parent != nil {
		return "func literal in " + u.parent.name()
	}
	return "func literal"
}

// info returns the unit's type-check results.
func (u *funcUnit) info() *types.Info { return u.pkg.Info }

// Conc is the module-wide concurrency index.
type Conc struct {
	units []*funcUnit
	byObj map[*types.Func]*funcUnit
	byLit map[*ast.FuncLit]*funcUnit
}

// newConc indexes every function body in pkgs. Package, file and
// declaration order are the loader's, so unit iteration — and with it
// every diagnostic lockorder emits — is deterministic.
func newConc(pkgs []*Package) *Conc {
	c := &Conc{
		byObj: map[*types.Func]*funcUnit{},
		byLit: map[*ast.FuncLit]*funcUnit{},
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				u := &funcUnit{pkg: pkg, decl: fd}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					c.byObj[obj] = u
				}
				c.units = append(c.units, u)
				c.collectLits(u)
			}
		}
	}
	return c
}

// collectLits registers every function literal nested in u's body as
// its own unit, marking literals that are the operand of a go
// statement. Literals nested inside other literals get the inner
// literal as parent.
func (c *Conc) collectLits(u *funcUnit) {
	goLits := map[*ast.FuncLit]bool{}
	ast.Inspect(u.body(), func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
				goLits[lit] = true
			}
		}
		return true
	})
	var visit func(parent *funcUnit, body *ast.BlockStmt)
	visit = func(parent *funcUnit, body *ast.BlockStmt) {
		ast.Inspect(body, func(n ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			lu := &funcUnit{pkg: u.pkg, lit: lit, parent: parent, goSpawned: goLits[lit]}
			c.byLit[lit] = lu
			c.units = append(c.units, lu)
			visit(lu, lit.Body)
			return false // nested literals handled by the recursive visit
		})
	}
	visit(u, u.body())
}

// calleeUnit resolves a static call to the module-internal unit it
// invokes, or nil for builtins, stdlib calls, and dynamic calls
// through function values.
func (c *Conc) calleeUnit(info *types.Info, call *ast.CallExpr) *funcUnit {
	if fn := pkgFunc(info, call); fn != nil {
		return c.byObj[fn]
	}
	return nil
}

// syncCall is one classified method call on a sync primitive.
type syncCall struct {
	recv   *types.Var // field or variable holding the primitive; may be nil
	label  string     // stable human-readable identity, e.g. "(backend).mu"
	typ    string     // "Mutex", "RWMutex", "WaitGroup", "Once", "Cond"
	method string     // "Lock", "RLock", "Unlock", "Wait", "Add", "Done", ...
}

// classifySyncCall recognizes method calls on package sync primitives
// (directly or through an embedded field) and resolves the identity of
// the variable or field holding the primitive.
func classifySyncCall(info *types.Info, call *ast.CallExpr) *syncCall {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	recvType := sig.Recv().Type()
	if p, ok := recvType.(*types.Pointer); ok {
		recvType = p.Elem()
	}
	named, ok := types.Unalias(recvType).(*types.Named)
	if !ok {
		return nil
	}
	sc := &syncCall{typ: named.Obj().Name(), method: fn.Name()}
	sc.recv, sc.label = resolveSyncOperand(info, sel)
	if sc.label == "" {
		sc.label = "sync." + sc.typ
	}
	return sc
}

// resolveSyncOperand resolves the receiver expression of a sync method
// call (the `b.mu` of b.mu.Lock(), or the `t` of t.Lock() on a type
// embedding sync.Mutex) to the variable or field object holding the
// primitive, plus a stable label. Operands that are not simple
// variable/field chains (map index, function result) resolve to nil.
func resolveSyncOperand(info *types.Info, sel *ast.SelectorExpr) (*types.Var, string) {
	// Promoted method through an embedded field: follow the selection's
	// field index path to the embedded primitive.
	if s, ok := info.Selections[sel]; ok && len(s.Index()) > 1 {
		t := s.Recv()
		owner := ""
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := types.Unalias(t).(*types.Named); ok {
			owner = named.Obj().Name()
		}
		var field *types.Var
		for _, idx := range s.Index()[:len(s.Index())-1] {
			st, ok := derefStruct(t)
			if !ok {
				return nil, ""
			}
			field = st.Field(idx)
			t = field.Type()
		}
		if owner == "" {
			return field, "(struct)." + field.Name()
		}
		return field, "(" + owner + ")." + field.Name()
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok {
			return v, labelForVar(info, v, nil)
		}
	case *ast.SelectorExpr:
		if v, ok := info.Uses[x.Sel].(*types.Var); ok {
			return v, labelForVar(info, v, x)
		}
	}
	return nil, ""
}

// derefStruct unwraps pointers and named types down to a struct type.
func derefStruct(t types.Type) (*types.Struct, bool) {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

// labelForVar renders a stable identity label: "(Owner).field" for
// struct fields (owner recovered from the selection when available),
// "pkg.name" for package-level variables, plain name for locals.
func labelForVar(info *types.Info, v *types.Var, selX *ast.SelectorExpr) string {
	if v.IsField() {
		if selX != nil {
			if s, ok := info.Selections[selX]; ok {
				t := s.Recv()
				if p, ok := t.Underlying().(*types.Pointer); ok {
					t = p.Elem()
				}
				if named, ok := types.Unalias(t).(*types.Named); ok {
					return "(" + named.Obj().Name() + ")." + v.Name()
				}
			}
		}
		return "(struct)." + v.Name()
	}
	if v.Parent() != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return v.Pkg().Name() + "." + v.Name()
	}
	return v.Name()
}

// isTerminatorCall reports whether a statement-level expression is a
// call that never returns: panic, os.Exit, runtime.Goexit, or a
// log.Fatal variant. Statement lists are cut at such calls when
// analyzing fall-through flow.
func isTerminatorCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			return true
		}
	}
	fn := pkgFunc(info, call)
	if fn == nil {
		return false
	}
	switch funcPath(fn) {
	case "os":
		return fn.Name() == "Exit"
	case "runtime":
		return fn.Name() == "Goexit"
	case "log":
		return strings.HasPrefix(fn.Name(), "Fatal")
	}
	return false
}

// describePos renders a position for cross-reference inside diagnostic
// messages (file base name and line, not the full path).
func describePos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	name := p.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d", name, p.Line)
}
