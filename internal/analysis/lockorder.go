package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockOrder builds the module-wide lock-acquisition graph and enforces
// two invariants on it. First, acquisition order must be acyclic at
// lock-class granularity (a lock class is the mutex field or variable,
// so "(backend).mu" is one class across every instance): a cycle —
// including the one-edge cycle of acquiring a class while already
// holding it — is how ABBA deadlocks are spelled. Second, no lock may
// be held across a blocking operation: a channel send or receive, a
// select without a default, a WaitGroup/Cond Wait, a net/http round
// trip, or a time.Sleep. A holder blocked on peer progress stalls
// every other acquirer, and when the peer needs the same lock the stall
// is a deadlock. Both checks thread interprocedurally: calling a
// function that (transitively) acquires a lock or blocks counts at the
// call site, across package boundaries. Goroutine bodies are separate
// flows — locks held at a `go` statement are not held inside the
// spawned goroutine.
var LockOrder = &Analyzer{
	Name:      "lockorder",
	RunModule: runLockOrder,
}

// lockEdge records "to was acquired while from was held", with the
// acquisition (or call) site and an optional callee the acquisition
// was reached through.
type lockEdge struct {
	from, to           *types.Var
	fromLabel, toLabel string
	pos                token.Pos
	via                string // callee name for summary-propagated edges
}

// blockFact describes why a function may block, for diagnostics at the
// call site.
type blockFact struct {
	what string
	pos  token.Pos
}

// lockSummary is what one function unit may do to the lock world:
// which lock classes it may acquire anywhere (transitively), and
// whether it may block.
type lockSummary struct {
	acquires map[*types.Var]acqSite
	block    *blockFact
}

type acqSite struct {
	label string
	pos   token.Pos
}

type lockOrderChecker struct {
	pass      *ModulePass
	conc      *Conc
	summaries map[*funcUnit]*lockSummary
	inFlight  map[*funcUnit]bool
	edges     []lockEdge
	edgeSeen  map[[2]*types.Var]bool
}

// heldLock is one entry of the ordered held set.
type heldLock struct {
	v     *types.Var
	label string
}

type heldSet []heldLock

func (h heldSet) copyAll() heldSet { return append(heldSet(nil), h...) }

func (h heldSet) names() string {
	var parts []string
	for _, l := range h {
		parts = append(parts, l.label)
	}
	return strings.Join(parts, ", ")
}

// removeLast drops the most recent occurrence of v (LIFO unlock).
func (h heldSet) removeLast(v *types.Var) heldSet {
	for i := len(h) - 1; i >= 0; i-- {
		if h[i].v == v {
			return append(h[:i:i], h[i+1:]...)
		}
	}
	return h
}

func (h heldSet) holds(v *types.Var) bool {
	for _, l := range h {
		if l.v == v {
			return true
		}
	}
	return false
}

// intersect keeps the locks present in both sets, preserving h's order.
func (h heldSet) intersect(other heldSet) heldSet {
	var out heldSet
	for _, l := range h {
		if other.holds(l.v) {
			out = append(out, l)
		}
	}
	return out
}

func runLockOrder(pass *ModulePass) error {
	c := &lockOrderChecker{
		pass:      pass,
		conc:      pass.Conc,
		summaries: map[*funcUnit]*lockSummary{},
		inFlight:  map[*funcUnit]bool{},
		edgeSeen:  map[[2]*types.Var]bool{},
	}
	for _, u := range c.conc.units {
		c.walkStmts(u, u.body().List, heldSet{})
	}
	c.reportCycles()
	return nil
}

// summary computes (memoized, cycle-safe) what unit u may acquire and
// whether it may block, folding in non-go-spawned nested literals and
// module-internal static callees. A recursion cycle resolves to the
// facts gathered so far.
func (c *lockOrderChecker) summary(u *funcUnit) *lockSummary {
	if s, ok := c.summaries[u]; ok {
		return s
	}
	if c.inFlight[u] {
		return &lockSummary{acquires: map[*types.Var]acqSite{}}
	}
	c.inFlight[u] = true
	defer delete(c.inFlight, u)
	s := &lockSummary{acquires: map[*types.Var]acqSite{}}
	c.scanSummary(u, u.body(), s)
	c.summaries[u] = s
	return s
}

// scanSummary walks node collecting acquisition and blocking facts into
// s. Nested function literals are folded in unless go-spawned (their
// bodies run on another goroutine and do not block or order this one).
func (c *lockOrderChecker) scanSummary(u *funcUnit, node ast.Node, s *lockSummary) {
	info := u.info()
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if lu := c.conc.byLit[n]; lu != nil && lu.goSpawned {
				return false
			}
			return true
		case *ast.SendStmt:
			if s.block == nil {
				s.block = &blockFact{what: "a channel send", pos: n.Pos()}
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && s.block == nil {
				s.block = &blockFact{what: "a channel receive", pos: n.Pos()}
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan && s.block == nil {
					s.block = &blockFact{what: "a range over a channel", pos: n.Pos()}
				}
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) && s.block == nil {
				s.block = &blockFact{what: "a select without default", pos: n.Pos()}
			}
			// comm clauses of a non-blocking select would double-count;
			// walk only the clause bodies either way.
			for _, clause := range n.Body.List {
				for _, body := range clause.(*ast.CommClause).Body {
					ast.Inspect(body, walk)
				}
			}
			return false
		case *ast.CallExpr:
			if sc := classifySyncCall(info, n); sc != nil {
				switch {
				case isLockAcquire(sc):
					if sc.recv != nil {
						if _, ok := s.acquires[sc.recv]; !ok {
							s.acquires[sc.recv] = acqSite{label: sc.label, pos: n.Pos()}
						}
					}
				case isSyncWait(sc):
					if s.block == nil {
						s.block = &blockFact{what: "sync." + sc.typ + ".Wait", pos: n.Pos()}
					}
				}
				return true
			}
			if what := blockingStdlibCall(info, n); what != "" && s.block == nil {
				s.block = &blockFact{what: what, pos: n.Pos()}
			}
			if callee := c.conc.calleeUnit(info, n); callee != nil {
				cs := c.summary(callee)
				for v, site := range cs.acquires {
					if _, ok := s.acquires[v]; !ok {
						s.acquires[v] = site
					}
				}
				if cs.block != nil && s.block == nil {
					s.block = &blockFact{what: cs.block.what + " inside " + callee.name(), pos: n.Pos()}
				}
			}
		}
		return true
	}
	ast.Inspect(node, walk)
}

// isLockAcquire reports whether sc acquires a mutex.
func isLockAcquire(sc *syncCall) bool {
	if sc.typ != "Mutex" && sc.typ != "RWMutex" {
		return false
	}
	return sc.method == "Lock" || sc.method == "RLock"
}

// isLockRelease reports whether sc releases a mutex.
func isLockRelease(sc *syncCall) bool {
	if sc.typ != "Mutex" && sc.typ != "RWMutex" {
		return false
	}
	return sc.method == "Unlock" || sc.method == "RUnlock"
}

// isSyncWait reports whether sc is a blocking sync Wait.
func isSyncWait(sc *syncCall) bool {
	return sc.method == "Wait" && (sc.typ == "WaitGroup" || sc.typ == "Cond")
}

// blockingStdlibCall recognizes standard-library calls that block on
// peer progress or wall-clock time.
func blockingStdlibCall(info *types.Info, call *ast.CallExpr) string {
	fn := pkgFunc(info, call)
	if fn == nil {
		return ""
	}
	switch funcPath(fn) {
	case "time":
		if fn.Name() == "Sleep" {
			return "time.Sleep"
		}
	case "net/http":
		switch fn.Name() {
		case "Do", "Get", "Post", "PostForm", "Head":
			return "a net/http round trip (http." + fn.Name() + ")"
		}
	}
	return ""
}

// selectHasDefault reports whether sel has a default clause (making it
// non-blocking).
func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if clause.(*ast.CommClause).Comm == nil {
			return true
		}
	}
	return false
}

// walkStmts is the intraprocedural flow walk: it tracks the ordered
// held-lock set through a statement list, records acquisition-order
// edges, and reports blocking operations reached while holding. It
// returns the held set at fall-through and whether the list always
// terminates (returns, branches, panics) before falling through.
// Branch merges are conservative: the fall-through held set of a
// conditional is the intersection of its falling-through arms, so an
// early-unlock-and-return branch does not poison the main path.
func (c *lockOrderChecker) walkStmts(u *funcUnit, stmts []ast.Stmt, held heldSet) (heldSet, bool) {
	for _, stmt := range stmts {
		var terminated bool
		held, terminated = c.walkStmt(u, stmt, held)
		if terminated {
			return held, true
		}
	}
	return held, false
}

func (c *lockOrderChecker) walkStmt(u *funcUnit, stmt ast.Stmt, held heldSet) (heldSet, bool) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		held = c.scanExpr(u, s.X, held)
		if isTerminatorCall(u.info(), s.X) {
			return held, true
		}
	case *ast.SendStmt:
		held = c.scanExpr(u, s.Chan, held)
		held = c.scanExpr(u, s.Value, held)
		c.reportBlocked(u, held, "a channel send", s.Arrow)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			held = c.scanExpr(u, e, held)
		}
		for _, e := range s.Lhs {
			held = c.scanExpr(u, e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						held = c.scanExpr(u, e, held)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		held = c.scanExpr(u, s.X, held)
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps mu held to function end — exactly the
		// critical-section idiom; leave it held for the rest of the walk.
		// Other deferred work runs outside this flow; only its argument
		// expressions evaluate here.
		if sc := classifySyncCall(u.info(), s.Call); sc == nil || !isLockRelease(sc) {
			for _, a := range s.Call.Args {
				held = c.scanExpr(u, a, held)
			}
		}
	case *ast.GoStmt:
		// The spawned body is a separate flow; only the call's argument
		// expressions evaluate on this goroutine.
		for _, a := range s.Call.Args {
			held = c.scanExpr(u, a, held)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			held = c.scanExpr(u, e, held)
		}
		return held, true
	case *ast.BranchStmt:
		return held, true
	case *ast.BlockStmt:
		var terminated bool
		held, terminated = c.walkStmts(u, s.List, held)
		return held, terminated
	case *ast.LabeledStmt:
		return c.walkStmt(u, s.Stmt, held)
	case *ast.IfStmt:
		if s.Init != nil {
			held, _ = c.walkStmt(u, s.Init, held)
		}
		held = c.scanExpr(u, s.Cond, held)
		bodyExit, bodyTerm := c.walkStmts(u, s.Body.List, held.copyAll())
		elseExit, elseTerm := held, false
		if s.Else != nil {
			elseExit, elseTerm = c.walkStmt(u, s.Else, held.copyAll())
		}
		switch {
		case bodyTerm && elseTerm:
			return held, true
		case bodyTerm:
			return elseExit, false
		case elseTerm:
			return bodyExit, false
		default:
			return bodyExit.intersect(elseExit), false
		}
	case *ast.ForStmt:
		if s.Init != nil {
			held, _ = c.walkStmt(u, s.Init, held)
		}
		if s.Cond != nil {
			held = c.scanExpr(u, s.Cond, held)
		}
		c.walkStmts(u, s.Body.List, held.copyAll())
		if s.Post != nil {
			c.walkStmt(u, s.Post, held.copyAll())
		}
	case *ast.RangeStmt:
		held = c.scanExpr(u, s.X, held)
		if t := u.info().TypeOf(s.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				c.reportBlocked(u, held, "a range over a channel", s.Pos())
			}
		}
		c.walkStmts(u, s.Body.List, held.copyAll())
	case *ast.SwitchStmt:
		if s.Init != nil {
			held, _ = c.walkStmt(u, s.Init, held)
		}
		if s.Tag != nil {
			held = c.scanExpr(u, s.Tag, held)
		}
		return c.walkClauses(u, s.Body, held)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			held, _ = c.walkStmt(u, s.Init, held)
		}
		return c.walkClauses(u, s.Body, held)
	case *ast.SelectStmt:
		if !selectHasDefault(s) {
			c.reportBlocked(u, held, "a select without default", s.Pos())
		}
		for _, clause := range s.Body.List {
			cc := clause.(*ast.CommClause)
			// The comm op's blocking nature is the select's (already
			// reported above); still scan it for calls and locks.
			arm := held.copyAll()
			if cc.Comm != nil {
				arm, _ = c.walkCommStmt(u, cc.Comm, arm)
			}
			c.walkStmts(u, cc.Body, arm)
		}
	}
	return held, false
}

// walkClauses merges the held sets of a switch's case clauses: the
// fall-through set is the intersection of the entry set (taken when no
// case matches or there is no default) and every non-terminating
// clause exit; the switch terminates only when a default exists and
// every clause terminates.
func (c *lockOrderChecker) walkClauses(u *funcUnit, body *ast.BlockStmt, held heldSet) (heldSet, bool) {
	exits := []heldSet{}
	hasDefault := false
	allTerminate := true
	for _, clause := range body.List {
		cc := clause.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		arm := held.copyAll()
		for _, e := range cc.List {
			arm = c.scanExpr(u, e, arm)
		}
		exit, term := c.walkStmts(u, cc.Body, arm)
		if !term {
			allTerminate = false
			exits = append(exits, exit)
		}
	}
	if hasDefault && allTerminate {
		return held, true
	}
	out := held
	if hasDefault && len(exits) > 0 {
		out = exits[0]
		exits = exits[1:]
	}
	for _, e := range exits {
		out = out.intersect(e)
	}
	return out, false
}

// walkCommStmt processes a select communication statement without
// re-reporting its channel operation (the select itself was already
// classified).
func (c *lockOrderChecker) walkCommStmt(u *funcUnit, stmt ast.Stmt, held heldSet) (heldSet, bool) {
	switch s := stmt.(type) {
	case *ast.SendStmt:
		held = c.scanExpr(u, s.Chan, held)
		held = c.scanExpr(u, s.Value, held)
		return held, false
	case *ast.AssignStmt:
		// case v := <-ch: scan operands of the receive, skip the receive.
		for _, e := range s.Rhs {
			if un, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && un.Op == token.ARROW {
				held = c.scanExpr(u, un.X, held)
				continue
			}
			held = c.scanExpr(u, e, held)
		}
		return held, false
	case *ast.ExprStmt:
		if un, ok := ast.Unparen(s.X).(*ast.UnaryExpr); ok && un.Op == token.ARROW {
			return c.scanExpr(u, un.X, held), false
		}
	}
	return c.walkStmt(u, stmt, held)
}

// scanExpr processes every call and channel receive inside expr (in
// evaluation region, skipping nested function literals), updating and
// returning the held set.
func (c *lockOrderChecker) scanExpr(u *funcUnit, expr ast.Expr, held heldSet) heldSet {
	ast.Inspect(expr, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				c.reportBlocked(u, held, "a channel receive", n.Pos())
			}
		case *ast.CallExpr:
			held = c.handleCall(u, n, held)
		}
		return true
	})
	return held
}

// handleCall applies one call's lock effects: acquisitions push the
// held set and record order edges; releases pop; blocking calls and
// calls into functions that may acquire or block are checked against
// the current held set.
func (c *lockOrderChecker) handleCall(u *funcUnit, call *ast.CallExpr, held heldSet) heldSet {
	info := u.info()
	if sc := classifySyncCall(info, call); sc != nil {
		switch {
		case isLockAcquire(sc):
			if sc.recv == nil {
				return held
			}
			for _, h := range held {
				c.addEdge(lockEdge{from: h.v, to: sc.recv, fromLabel: h.label, toLabel: sc.label, pos: call.Pos()})
			}
			return append(held, heldLock{v: sc.recv, label: sc.label})
		case isLockRelease(sc):
			if sc.recv != nil {
				return held.removeLast(sc.recv)
			}
		case isSyncWait(sc):
			c.reportBlocked(u, held, "sync."+sc.typ+".Wait", call.Pos())
		}
		return held
	}
	if what := blockingStdlibCall(info, call); what != "" {
		c.reportBlocked(u, held, what, call.Pos())
		return held
	}
	if callee := c.conc.calleeUnit(info, call); callee != nil {
		cs := c.summary(callee)
		if len(held) > 0 {
			for v, site := range cs.acquires {
				last := held[len(held)-1]
				c.addEdge(lockEdge{from: last.v, to: v, fromLabel: last.label, toLabel: site.label,
					pos: call.Pos(), via: callee.name()})
			}
			if cs.block != nil {
				c.reportBlocked(u, held, cs.block.what+" inside "+callee.name()+
					" ("+describePos(c.pass.Fset, cs.block.pos)+")", call.Pos())
			}
		}
	}
	return held
}

// addEdge records one acquisition-order edge, keeping the first site
// per (from, to) class pair (unit iteration order is deterministic, so
// the kept site is too).
func (c *lockOrderChecker) addEdge(e lockEdge) {
	key := [2]*types.Var{e.from, e.to}
	if c.edgeSeen[key] {
		return
	}
	c.edgeSeen[key] = true
	c.edges = append(c.edges, e)
}

// reportBlocked emits the held-across-blocking-operation diagnostic.
func (c *lockOrderChecker) reportBlocked(u *funcUnit, held heldSet, what string, pos token.Pos) {
	if len(held) == 0 {
		return
	}
	c.pass.Reportf(pos, "%s held across %s; a blocked holder stalls every other acquirer — release the lock first or make the operation non-blocking", held.names(), what)
}

// reportCycles finds acquisition-order cycles in the recorded edge
// graph and reports every edge that participates in one, at its
// acquisition site.
func (c *lockOrderChecker) reportCycles() {
	adj := map[*types.Var][]*types.Var{}
	for _, e := range c.edges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	reaches := func(from, to *types.Var) bool {
		seen := map[*types.Var]bool{}
		stack := []*types.Var{from}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if v == to {
				return true
			}
			if seen[v] {
				continue
			}
			seen[v] = true
			stack = append(stack, adj[v]...)
		}
		return false
	}
	for _, e := range c.edges {
		if e.from == e.to {
			c.pass.Reportf(e.pos, "acquires %s while already holding %s%s; sync mutexes are not reentrant — two instances lock in arbitrary order and one instance self-deadlocks", e.toLabel, e.fromLabel, viaSuffix(e))
			continue
		}
		if reaches(e.to, e.from) {
			c.pass.Reportf(e.pos, "acquiring %s while holding %s%s creates a lock-order cycle (%s is elsewhere acquired while %s is held); impose one module-wide acquisition order", e.toLabel, e.fromLabel, viaSuffix(e), e.fromLabel, e.toLabel)
		}
	}
}

func viaSuffix(e lockEdge) string {
	if e.via == "" {
		return ""
	}
	return " (via call to " + e.via + ")"
}
