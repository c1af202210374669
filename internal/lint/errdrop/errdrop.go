// Package errdrop flags discarded errors from the storage and
// transport layers.
//
// DFS operations, obs file-store writes, and recordio scans are the
// engine's durability boundary: a swallowed error there means
// committed output or a persisted trace silently missing. The RPC
// transport under the out-of-process backend is the same kind of
// boundary — a dropped Call error is a control-plane message
// (completion, heartbeat, DFS write) that silently never happened. The
// analyzer flags calls on *dfs.FileSystem, dfs.Store, obs.FS,
// recordio.Writer, rpc.Transport (and its implementations),
// *rpc.RemoteStore, plus recordio and rpc package functions, whose
// error result is dropped — as a bare expression statement, assigned
// to the blank identifier, or made unobservable by go/defer.
//
// Errors that must not fail the caller should still be surfaced:
// counted, logged, or stored for a later accessor — not discarded.
package errdrop

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/engineapi"
)

// Analyzer flags dropped errors from DFS, obs store, and recordio
// calls.
var Analyzer = &analysis.Analyzer{
	Name: "errdrop",
	Doc: "errors from dfs.FileSystem, obs.FS and recordio calls are the " +
		"engine's durability signal and must be handled or surfaced, not discarded",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
					if name, ok := flaggedErrCall(pass.TypesInfo, call); ok {
						pass.Reportf(call.Pos(), "error returned by %s is discarded; handle it or surface it", name)
					}
				}
			case *ast.GoStmt:
				if name, ok := flaggedErrCall(pass.TypesInfo, n.Call); ok {
					pass.Reportf(n.Call.Pos(), "error returned by %s is unobservable in a go statement; check it in the goroutine", name)
				}
			case *ast.DeferStmt:
				if name, ok := flaggedErrCall(pass.TypesInfo, n.Call); ok {
					pass.Reportf(n.Call.Pos(), "error returned by %s is unobservable in a defer; wrap it in a closure that checks it", name)
				}
			case *ast.AssignStmt:
				checkAssign(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkAssign flags error results assigned to the blank identifier.
func checkAssign(pass *analysis.Pass, n *ast.AssignStmt) {
	report := func(call *ast.CallExpr, name string) {
		pass.Reportf(call.Pos(), "error returned by %s is assigned to _; handle it or surface it", name)
	}
	// a, err := f() — one call expanding to all LHS positions.
	if len(n.Rhs) == 1 {
		call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		fn, name := flaggedCallee(pass.TypesInfo, call)
		if fn == nil {
			return
		}
		sig := fn.Type().(*types.Signature)
		if sig.Results().Len() != len(n.Lhs) {
			return
		}
		for i := 0; i < sig.Results().Len(); i++ {
			if isErrorType(sig.Results().At(i).Type()) && isBlank(n.Lhs[i]) {
				report(call, name)
				return
			}
		}
		return
	}
	// a, b := f(), g() — position-matched single-result calls.
	if len(n.Rhs) == len(n.Lhs) {
		for i, rhs := range n.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok {
				continue
			}
			fn, name := flaggedCallee(pass.TypesInfo, call)
			if fn == nil {
				continue
			}
			sig := fn.Type().(*types.Signature)
			if sig.Results().Len() == 1 && isErrorType(sig.Results().At(0).Type()) && isBlank(n.Lhs[i]) {
				report(call, name)
			}
		}
	}
}

// flaggedErrCall reports whether call targets the storage surface and
// returns an error (which the caller is discarding).
func flaggedErrCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn, name := flaggedCallee(info, call)
	if fn == nil {
		return "", false
	}
	sig := fn.Type().(*types.Signature)
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			return name, true
		}
	}
	return "", false
}

// flaggedCallee resolves the called function when it belongs to the
// watched storage surface, along with a display name.
func flaggedCallee(info *types.Info, call *ast.CallExpr) (*types.Func, string) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil, ""
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok {
		return nil, ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil, ""
	}
	if recv := sig.Recv(); recv != nil {
		for _, w := range []struct{ name, path, disp string }{
			{"FileSystem", engineapi.DFSPath, "(*dfs.FileSystem)"},
			{"Store", engineapi.DFSPath, "(dfs.Store)"},
			{"FS", engineapi.ObsPath, "(obs.FS)"},
			{"Writer", engineapi.RecordioPath, "(*recordio.Writer)"},
			// The RPC transport layer: a dropped transport error means a
			// lost control-plane message (a completion, a heartbeat, a
			// DFS write) nobody will retry.
			{"Transport", engineapi.RPCPath, "(rpc.Transport)"},
			{"RemoteStore", engineapi.RPCPath, "(*rpc.RemoteStore)"},
			{"MemNetwork", engineapi.RPCPath, "(*rpc.MemNetwork)"},
			{"TCPNetwork", engineapi.RPCPath, "(*rpc.TCPNetwork)"},
			{"Unreliable", engineapi.RPCPath, "(*rpc.Unreliable)"},
			// The cluster services themselves: a swallowed
			// WaitForWorkers or Run error is a jobtracker/worker that
			// silently never came up, and a dropped StatusServer
			// shutdown error is a listener leaked past teardown. The
			// Federation is watched for the same reason even though its
			// current merge surface reports staleness as a bool.
			{"Jobtracker", engineapi.RPCPath, "(*rpc.Jobtracker)"},
			{"Worker", engineapi.RPCPath, "(*rpc.Worker)"},
			{"Federation", engineapi.RPCPath, "(*rpc.Federation)"},
			{"StatusServer", engineapi.ObsPath, "(*obs.StatusServer)"},
		} {
			if engineapi.NamedFrom(recv.Type(), w.name, w.path) != nil {
				return fn, w.disp + "." + fn.Name()
			}
		}
		return nil, ""
	}
	if engineapi.FromPkg(fn, engineapi.RecordioPath) {
		return fn, "recordio." + fn.Name()
	}
	if engineapi.FromPkg(fn, engineapi.RPCPath) {
		return fn, "rpc." + fn.Name()
	}
	if engineapi.FromPkg(fn, engineapi.ObsPath) {
		return fn, "obs." + fn.Name()
	}
	return nil, ""
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

func isBlank(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "_"
}
