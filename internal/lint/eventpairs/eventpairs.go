// Package eventpairs checks that every obs.SpanStart / obs.PhaseStart
// emitted in a function is paired with the matching SpanEnd / PhaseEnd
// on every path out of that function — including early error returns.
//
// The span tree (its analysis, timeline and Chrome export) treats an
// unclosed span or phase as still running: critical-path analysis
// then attributes the whole job tail to it and the timeline renders an
// open interval. A Start whose End is skipped on an error return is
// the classic leak this analyzer exists to catch.
//
// Recognized closing idioms, modeled on the repo's code:
//
//   - an End emitted on the same path before the return
//   - defer bus.Emit(obs.Event{Type: obs.SpanEnd, ...})
//   - defer func() { ... Emit(SpanEnd) ... }()   (core.AttackPOI)
//   - defer span(...)()  where span is a "closer provider": a function
//     that returns a func() emitting the End (gepeto.span)
//
// A closer provider is itself exempt for the kinds its returned closure
// closes — its Start is intentionally closed by the caller invoking the
// closure. Calling a provider and discarding the closer is flagged.
//
// The walk is a conservative linear pass per function body: branches
// are explored with cloned state, loops and switches do not leak state
// into the continuation, and nested function literals are separate
// contexts (they run at a different time).
package eventpairs

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/engineapi"
)

// Analyzer checks Start/End pairing of obs span and phase events on
// all return paths.
var Analyzer = &analysis.Analyzer{
	Name: "eventpairs",
	Doc: "every obs.SpanStart/PhaseStart must be paired with its SpanEnd/PhaseEnd on " +
		"all paths out of the emitting function, including error returns; unclosed " +
		"intervals corrupt critical-path and timeline analysis",
	Run: run,
}

// evt is one span/phase start or end: kind "span" or "phase", phase
// holds the literal phase name or "*" when dynamic.
type evt struct {
	start bool
	kind  string
	phase string
}

// key is the open-interval identity an End must close.
func (e evt) key() string {
	if e.kind == "span" {
		return "span"
	}
	return "phase:" + e.phase
}

func describe(key string) (start, end string) {
	if key == "span" {
		return "obs.SpanStart", "obs.SpanEnd"
	}
	phase := strings.TrimPrefix(key, "phase:")
	if phase == "*" {
		return "obs.PhaseStart", "obs.PhaseEnd"
	}
	return "obs.PhaseStart (" + strconv.Quote(phase) + ")", "obs.PhaseEnd"
}

type checker struct {
	pass *analysis.Pass
	// providers maps a function to the kinds closed by the closer it
	// returns.
	providers map[*types.Func][]evt
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass, providers: map[*types.Func][]evt{}}

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if ends := c.returnedCloserEnds(fd.Body); len(ends) > 0 {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					c.providers[fn] = ends
				}
			}
		}
	}

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.checkContext(fd.Body)
		}
		// Function literals are separate execution contexts: a literal
		// run as a goroutine or callback must close what it opens.
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				c.checkContext(lit.Body)
			}
			return true
		})
	}
	return nil
}

// returnedCloserEnds collects the End events emitted by function
// literals returned from body (not from nested literals' returns).
func (c *checker) returnedCloserEnds(body *ast.BlockStmt) []evt {
	var ends []evt
	noFuncLit(body, func(n ast.Node) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return
		}
		for _, res := range ret.Results {
			if lit, ok := ast.Unparen(res).(*ast.FuncLit); ok {
				ends = append(ends, c.endsIn(lit.Body)...)
			}
		}
	})
	return ends
}

// endsIn collects End events emitted anywhere in body.
func (c *checker) endsIn(body *ast.BlockStmt) []evt {
	lits := c.collectVarLits(body)
	var ends []evt
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if e, ok := c.classifyEmit(call, lits); ok && !e.start {
				ends = append(ends, e)
			}
		}
		return true
	})
	return ends
}

// noFuncLit walks body calling fn on every node outside nested
// function literals.
func noFuncLit(body *ast.BlockStmt, fn func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// collectVarLits maps local variables to the obs.Event composite
// literal assigned to them, so `ev := obs.Event{...}; bus.Emit(ev)`
// classifies like an inline literal. Nested literals keep their own
// scope.
func (c *checker) collectVarLits(body *ast.BlockStmt) map[*types.Var]*ast.CompositeLit {
	out := map[*types.Var]*ast.CompositeLit{}
	record := func(name *ast.Ident, val ast.Expr) {
		lit, ok := ast.Unparen(val).(*ast.CompositeLit)
		if !ok || !engineapi.IsObsEventType(c.pass.TypesInfo.TypeOf(lit)) {
			return
		}
		obj := c.pass.TypesInfo.Defs[name]
		if obj == nil {
			obj = c.pass.TypesInfo.Uses[name]
		}
		if v, ok := obj.(*types.Var); ok {
			out[v] = lit
		}
	}
	noFuncLit(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return
			}
			for i := range n.Lhs {
				if id, ok := n.Lhs[i].(*ast.Ident); ok {
					record(id, n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					record(n.Names[i], n.Values[i])
				}
			}
		}
	})
	return out
}

// classifyEmit recognizes a call as an obs event emission and returns
// the span/phase start-or-end it denotes.
func (c *checker) classifyEmit(call *ast.CallExpr, lits map[*types.Var]*ast.CompositeLit) (evt, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Emit" || len(call.Args) != 1 {
		return evt{}, false
	}
	arg := ast.Unparen(call.Args[0])
	if !engineapi.IsObsEventType(c.pass.TypesInfo.TypeOf(arg)) {
		return evt{}, false
	}
	var lit *ast.CompositeLit
	switch arg := arg.(type) {
	case *ast.CompositeLit:
		lit = arg
	case *ast.Ident:
		if v, ok := c.pass.TypesInfo.Uses[arg].(*types.Var); ok {
			lit = lits[v]
		}
	}
	if lit == nil {
		return evt{}, false
	}
	var typ string
	phase := "*"
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		id, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		switch id.Name {
		case "Type":
			typ = engineapi.ObsEventConst(c.pass.TypesInfo, kv.Value)
		case "Phase":
			if bl, ok := ast.Unparen(kv.Value).(*ast.BasicLit); ok && bl.Kind == token.STRING {
				if s, err := strconv.Unquote(bl.Value); err == nil {
					phase = s
				}
			}
		}
	}
	switch typ {
	case "SpanStart":
		return evt{start: true, kind: "span"}, true
	case "SpanEnd":
		return evt{start: false, kind: "span"}, true
	case "PhaseStart":
		return evt{start: true, kind: "phase", phase: phase}, true
	case "PhaseEnd":
		return evt{start: false, kind: "phase", phase: phase}, true
	}
	return evt{}, false
}

// state is the walk's per-path view: currently open intervals and the
// kinds already guaranteed closed by a registered defer.
type state struct {
	open map[string]token.Pos
	dc   map[string]bool
}

func newState() *state {
	return &state{open: map[string]token.Pos{}, dc: map[string]bool{}}
}

func (s *state) clone() *state {
	n := newState()
	for k, v := range s.open {
		n.open[k] = v
	}
	for k, v := range s.dc {
		n.dc[k] = v
	}
	return n
}

// applyEnd closes the intervals e matches. A dynamic PhaseEnd closes
// every open phase; a literal one also closes a dynamically-opened
// phase.
func (s *state) applyEnd(e evt) {
	if e.kind == "span" {
		delete(s.open, "span")
		return
	}
	if e.phase == "*" {
		for k := range s.open {
			if strings.HasPrefix(k, "phase:") {
				delete(s.open, k)
			}
		}
		return
	}
	delete(s.open, "phase:"+e.phase)
	delete(s.open, "phase:*")
}

// deferClosed reports whether an interval with this key is already
// covered by a registered defer (or provider exemption).
func (s *state) deferClosed(key string) bool {
	if s.dc[key] {
		return true
	}
	if strings.HasPrefix(key, "phase:") {
		if s.dc["phase:*"] {
			return true
		}
		if strings.TrimPrefix(key, "phase:") == "*" {
			for k := range s.dc {
				if strings.HasPrefix(k, "phase:") {
					return true
				}
			}
		}
	}
	return false
}

// walker walks one function body.
type walker struct {
	c    *checker
	lits map[*types.Var]*ast.CompositeLit
}

// checkContext walks one function or literal body. If the body returns
// a closer (it is a provider), the kinds that closer closes are exempt:
// the Start is closed by the caller running the closure.
func (c *checker) checkContext(body *ast.BlockStmt) {
	w := &walker{c: c, lits: c.collectVarLits(body)}
	st := newState()
	for _, e := range c.returnedCloserEnds(body) {
		st.dc[e.key()] = true
	}
	terminated := w.stmts(body.List, st)
	if !terminated {
		keys := sortedKeys(st.open)
		for _, k := range keys {
			startName, endName := describe(k)
			c.pass.Reportf(st.open[k], "%s is never paired with %s before the function exits",
				startName, endName)
		}
	}
}

func sortedKeys(m map[string]token.Pos) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// reportReturn flags intervals still open at a return statement.
func (w *walker) reportReturn(st *state, pos token.Pos) {
	for _, k := range sortedKeys(st.open) {
		startName, endName := describe(k)
		line := w.c.pass.Fset.Position(st.open[k]).Line
		w.c.pass.Reportf(pos, "return without emitting %s for the %s at line %d",
			endName, startName, line)
	}
}

// stmts walks a statement list, mutating st along the path. It returns
// true when the list definitely terminates the function (every path
// returns).
func (w *walker) stmts(list []ast.Stmt, st *state) bool {
	for _, s := range list {
		if w.stmt(s, st) {
			return true
		}
	}
	return false
}

func (w *walker) stmt(s ast.Stmt, st *state) bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.exprStmt(s, st)
	case *ast.AssignStmt:
		w.assignStmt(s, st)
	case *ast.DeferStmt:
		for _, e := range w.deferEnds(s) {
			st.applyEnd(e)
			st.dc[e.key()] = true
		}
	case *ast.ReturnStmt:
		w.reportReturn(st, s.Pos())
		return true
	case *ast.BranchStmt:
		// break/continue/goto leave this statement list; stop the linear
		// walk of this path without reporting.
		return true
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		then := st.clone()
		tTerm := w.stmts(s.Body.List, then)
		els := st.clone()
		eTerm := false
		if s.Else != nil {
			eTerm = w.stmt(s.Else, els)
		}
		switch {
		case tTerm && eTerm:
			return true
		case tTerm:
			*st = *els
		case eTerm:
			*st = *then
		default:
			// Both branches fall through: keep only intervals open on
			// both, so correlated conditions cannot produce false
			// positives at later returns.
			st.open = intersectPos(then.open, els.open)
			st.dc = intersectBool(then.dc, els.dc)
		}
	case *ast.BlockStmt:
		return w.stmts(s.List, st)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		w.stmts(s.Body.List, st.clone())
	case *ast.RangeStmt:
		w.stmts(s.Body.List, st.clone())
	case *ast.SwitchStmt:
		return w.clauses(s.Body, st, hasDefaultCase(s.Body))
	case *ast.TypeSwitchStmt:
		return w.clauses(s.Body, st, hasDefaultCase(s.Body))
	case *ast.SelectStmt:
		// Control only leaves a select through one of its clauses.
		return w.clauses(s.Body, st, true)
	}
	return false
}

func hasDefaultCase(body *ast.BlockStmt) bool {
	for _, cl := range body.List {
		if cc, ok := cl.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// clauses walks each case body with cloned state; the switch
// terminates the function only when every clause does and the clause
// set covers all inputs.
func (w *walker) clauses(body *ast.BlockStmt, st *state, covered bool) bool {
	allTerm := true
	any := false
	for _, cl := range body.List {
		var stmts []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			stmts = cl.Body
		case *ast.CommClause:
			stmts = cl.Body
		default:
			continue
		}
		any = true
		if !w.stmts(stmts, st.clone()) {
			allTerm = false
		}
	}
	return covered && any && allTerm
}

func (w *walker) exprStmt(s *ast.ExprStmt, st *state) {
	call, ok := ast.Unparen(s.X).(*ast.CallExpr)
	if !ok {
		return
	}
	if ends := w.providerEnds(call); len(ends) > 0 {
		names := make([]string, 0, len(ends))
		for _, e := range ends {
			_, endName := describe(e.key())
			names = append(names, endName)
		}
		w.c.pass.Reportf(s.Pos(),
			"closer returned by this call is discarded: it emits %s and must run "+
				"(typically defer ...())", strings.Join(names, ", "))
		return
	}
	if e, ok := w.c.classifyEmit(call, w.lits); ok {
		if e.start {
			if !st.deferClosed(e.key()) {
				st.open[e.key()] = call.Pos()
			}
		} else {
			st.applyEnd(e)
		}
	}
}

// assignStmt flags provider closers assigned to the blank identifier.
func (w *walker) assignStmt(s *ast.AssignStmt, st *state) {
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i, rhs := range s.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		if id, ok := s.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
			if ends := w.providerEnds(call); len(ends) > 0 {
				_, endName := describe(ends[0].key())
				w.c.pass.Reportf(rhs.Pos(),
					"closer returned by this call is discarded: it emits %s and must run", endName)
			}
		}
	}
}

// providerEnds returns the End kinds for a call to a closer provider.
func (w *walker) providerEnds(call *ast.CallExpr) []evt {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := w.c.pass.TypesInfo.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	return w.c.providers[fn]
}

// deferEnds returns the End kinds a defer statement guarantees at
// function exit.
func (w *walker) deferEnds(s *ast.DeferStmt) []evt {
	call := s.Call
	// defer func() { ... Emit(End) ... }()
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return w.c.endsIn(lit.Body)
	}
	// defer span(...)()
	if inner, ok := ast.Unparen(call.Fun).(*ast.CallExpr); ok {
		return w.providerEnds(inner)
	}
	// defer bus.Emit(obs.Event{Type: obs.SpanEnd, ...})
	if e, ok := w.c.classifyEmit(call, w.lits); ok && !e.start {
		return []evt{e}
	}
	return nil
}

func intersectPos(a, b map[string]token.Pos) map[string]token.Pos {
	out := map[string]token.Pos{}
	for k, v := range a {
		if _, ok := b[k]; ok {
			out[k] = v
		}
	}
	return out
}

func intersectBool(a, b map[string]bool) map[string]bool {
	out := map[string]bool{}
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}
