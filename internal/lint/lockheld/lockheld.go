// Package lockheld flags blocking operations performed while a
// sync.Mutex or sync.RWMutex is held.
//
// The cluster plane's services (jobtracker, worker, federation,
// status) all follow the same discipline: take the lock, copy or
// mutate the shared view, release, then do the slow thing — an RPC
// Call, a channel handoff, a DFS read. Blocking inside the critical
// section instead turns one slow peer into a whole-service stall (the
// heartbeat handler queues behind a stuck completion, loss detection
// fires, and a healthy worker gets fenced). The blocking operations
// recognized are the ones that actually appear on these paths:
// rpc Transport.Call, channel send/receive (including range and
// blocking select), time.Sleep, sync.WaitGroup.Wait, and dfs.Store /
// *dfs.FileSystem / *rpc.RemoteStore I/O. sync.Cond.Wait is exempt —
// releasing the lock is its contract.
//
// The walk is a conservative linear pass: branches are explored with
// cloned lock-sets and re-merged by intersection, so both the `mu.Unlock(); call(); mu.Lock()` window
// idiom and `defer mu.Unlock()` (which holds to function exit — that
// is the point) are modeled. Nested function literals are separate
// contexts: a goroutine body does not inherit the spawner's locks.
package lockheld

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/engineapi"
)

// Analyzer flags blocking operations inside mutex critical sections.
var Analyzer = &analysis.Analyzer{
	Name: "lockheld",
	Doc: "no blocking operation (rpc Transport.Call, channel send/receive, time.Sleep, " +
		"WaitGroup.Wait, dfs.Store I/O) while a sync.Mutex/RWMutex is held; a blocked " +
		"critical section stalls every other user of the lock, including heartbeat and " +
		"completion handlers",
	Run: run,
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c.checkBody(fd.Body)
			}
		}
		// Function literals are separate execution contexts: locks held
		// where the literal is defined are not (necessarily) held where
		// it runs, and vice versa.
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				c.checkBody(lit.Body)
			}
			return true
		})
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
}

// state is the per-path lock view: lock expression → position of the
// Lock call that acquired it.
type state struct {
	held map[string]token.Pos
}

func newState() *state { return &state{held: map[string]token.Pos{}} }

func (s *state) clone() *state {
	n := newState()
	for k, v := range s.held {
		n.held[k] = v
	}
	return n
}

func (c *checker) checkBody(body *ast.BlockStmt) {
	w := &walker{c: c}
	w.stmts(body.List, newState())
}

type walker struct {
	c *checker
}

// report flags one blocking operation under the currently held locks.
func (w *walker) report(st *state, pos token.Pos, op string) {
	keys := make([]string, 0, len(st.held))
	for k := range st.held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	first := w.c.pass.Fset.Position(st.held[keys[0]])
	w.c.pass.Reportf(pos,
		"blocking %s while %s is held (locked at line %d); release the lock before blocking or shrink the critical section",
		op, strings.Join(keys, ", "), first.Line)
}

// blockingCall classifies a call as one of the watched blocking
// operations.
func (w *walker) blockingCall(call *ast.CallExpr) (string, bool) {
	info := w.c.pass.TypesInfo
	switch {
	case engineapi.TransportCall(info, call):
		return "rpc Transport.Call", true
	case engineapi.TimeSleep(info, call):
		return "time.Sleep", true
	case engineapi.WaitGroupWait(info, call):
		return "sync.WaitGroup.Wait", true
	}
	if name, ok := engineapi.StoreIOCall(info, call); ok {
		return name + " I/O", true
	}
	return "", false
}

// checkExpr scans one evaluated expression tree for blocking
// operations, skipping nested function literals (they run later).
func (w *walker) checkExpr(e ast.Expr, st *state) {
	if e == nil || len(st.held) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.report(st, n.Pos(), "channel receive")
			}
		case *ast.CallExpr:
			if op, ok := w.blockingCall(n); ok {
				w.report(st, n.Pos(), op)
			}
		}
		return true
	})
}

func (w *walker) checkExprs(st *state, exprs ...ast.Expr) {
	for _, e := range exprs {
		w.checkExpr(e, st)
	}
}

// stmts walks a statement list, mutating st along the path; true means
// the path left this list (return/branch).
func (w *walker) stmts(list []ast.Stmt, st *state) bool {
	for _, s := range list {
		if w.stmt(s, st) {
			return true
		}
	}
	return false
}

func (w *walker) stmt(s ast.Stmt, st *state) bool {
	info := w.c.pass.TypesInfo
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if recv, op, isMu := engineapi.MutexOp(info, call); isMu {
				key := types.ExprString(recv)
				switch op {
				case "Lock", "RLock":
					st.held[key] = call.Pos()
				case "Unlock", "RUnlock":
					delete(st.held, key)
				}
				return false
			}
		}
		w.checkExpr(s.X, st)
	case *ast.AssignStmt:
		w.checkExprs(st, s.Rhs...)
		w.checkExprs(st, s.Lhs...)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					w.checkExprs(st, vs.Values...)
				}
			}
		}
	case *ast.IncDecStmt:
		w.checkExpr(s.X, st)
	case *ast.SendStmt:
		w.checkExprs(st, s.Chan, s.Value)
		if len(st.held) > 0 {
			w.report(st, s.Arrow, "channel send")
		}
	case *ast.GoStmt:
		// The spawned body runs without these locks; only the argument
		// expressions evaluate here.
		w.checkExprs(st, s.Call.Args...)
	case *ast.DeferStmt:
		// defer mu.Unlock() releases at function exit, so the lock stays
		// held for the rest of the linear walk — which is exactly what
		// this analyzer must model. Other deferred calls run at exit
		// too; only their arguments evaluate now.
		if _, op, isMu := engineapi.MutexOp(info, s.Call); isMu && op != "" {
			return false
		}
		w.checkExprs(st, s.Call.Args...)
	case *ast.ReturnStmt:
		w.checkExprs(st, s.Results...)
		return true
	case *ast.BranchStmt:
		return true
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		w.checkExpr(s.Cond, st)
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
			// Both branches fall through: a lock is held in the
			// continuation only if both paths leave it held.
			st.held = intersect(then.held, els.held)
		}
	case *ast.BlockStmt:
		return w.stmts(s.List, st)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		w.checkExpr(s.Cond, st)
		w.stmts(s.Body.List, st.clone())
	case *ast.RangeStmt:
		w.checkExpr(s.X, st)
		if len(st.held) > 0 && isChanType(info.TypeOf(s.X)) {
			w.report(st, s.For, "channel receive (range over channel)")
		}
		w.stmts(s.Body.List, st.clone())
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		w.checkExpr(s.Tag, st)
		w.clauses(s.Body, st)
	case *ast.TypeSwitchStmt:
		w.clauses(s.Body, st)
	case *ast.SelectStmt:
		// A select without a default blocks until some clause is ready;
		// with a default it is a non-blocking attempt, and the clause
		// channel operations themselves never wait.
		if len(st.held) > 0 && !hasDefaultCase(s.Body) {
			w.report(st, s.Select, "blocking select")
		}
		w.clauses(s.Body, st)
	}
	return false
}

// clauses walks each case body with cloned lock state. Clause bodies
// never leak lock transitions into the continuation (conservative),
// and select comm statements are not re-checked — the select itself
// was already classified.
func (w *walker) clauses(body *ast.BlockStmt, st *state) {
	for _, cl := range body.List {
		switch cl := cl.(type) {
		case *ast.CaseClause:
			w.stmts(cl.Body, st.clone())
		case *ast.CommClause:
			w.stmts(cl.Body, st.clone())
		}
	}
}

func hasDefaultCase(body *ast.BlockStmt) bool {
	for _, cl := range body.List {
		if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

func intersect(a, b map[string]token.Pos) map[string]token.Pos {
	out := map[string]token.Pos{}
	for k, v := range a {
		if _, ok := b[k]; ok {
			out[k] = v
		}
	}
	return out
}
