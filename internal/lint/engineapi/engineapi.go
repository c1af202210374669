// Package engineapi recognizes the MapReduce engine's API surface in
// type-checked code: task-code function bodies (anything receiving a
// *mapreduce.TaskContext), emit callbacks, obs lifecycle events, and
// the file-system/history interfaces whose errors must not be
// dropped. Matching is by package-path suffix, so analyzer fixtures
// can supply stub packages under the same repro/internal/... paths.
package engineapi

import (
	"go/ast"
	"go/types"
	"strings"
)

// Package path suffixes of the engine layers the analyzers model.
const (
	MapreducePath = "internal/mapreduce"
	ObsPath       = "internal/obs"
	DFSPath       = "internal/dfs"
	RecordioPath  = "internal/recordio"
	RPCPath       = "internal/cluster/rpc"
)

// FromPkg reports whether obj belongs to a package whose import path
// ends in suffix (e.g. "internal/mapreduce").
func FromPkg(obj types.Object, suffix string) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return PathIs(obj.Pkg().Path(), suffix)
}

// PathIs reports whether an import path names the engine layer with
// the given suffix.
func PathIs(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// NamedFrom returns the *types.Named behind t (unwrapping pointers and
// aliases, and mapping generic instances to their origin) when it is
// declared in a package matching suffix with the given name.
func NamedFrom(t types.Type, name, suffix string) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok && namedOf(t) == nil {
		t = p.Elem()
	}
	n := namedOf(t)
	if n == nil {
		return nil
	}
	n = n.Origin()
	if n.Obj().Name() != name || !FromPkg(n.Obj(), suffix) {
		return nil
	}
	return n
}

func namedOf(t types.Type) *types.Named {
	switch t := t.(type) {
	case *types.Named:
		return t
	case *types.Alias:
		return namedOf(types.Unalias(t))
	case *types.Pointer:
		return namedOf(t.Elem())
	}
	return nil
}

// IsTaskContextPtr reports whether t is *mapreduce.TaskContext.
func IsTaskContextPtr(t types.Type) bool {
	p, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	return NamedFrom(p.Elem(), "TaskContext", MapreducePath) != nil
}

// IsEmitType reports whether t is an instance of mapreduce.TypedEmit —
// the callback task code emits records through.
func IsEmitType(t types.Type) bool {
	return NamedFrom(t, "TypedEmit", MapreducePath) != nil
}

// TaskFunc is one function or method whose body runs inside a task
// attempt (its first parameter is a *mapreduce.TaskContext), or a
// function literal adapted into one via the TypedMapFunc/
// TypedReduceFunc conversions.
type TaskFunc struct {
	// Name labels the function in diagnostics ("(*m).Cleanup",
	// "TypedMapFunc literal").
	Name string
	// Body is the function body to inspect.
	Body *ast.BlockStmt
	// Type is the function's signature.
	Sig *types.Signature
}

// funcAdapters are the named function types that lift plain funcs into
// task interfaces.
var funcAdapters = map[string]bool{"TypedMapFunc": true, "TypedReduceFunc": true}

// TaskFuncs finds every task-code body in the files: declared
// functions and methods whose first parameter is *TaskContext, plus
// function literals converted to one of the adapter types. Nested
// function literals inside a task body belong to the enclosing
// TaskFunc (they run in the same attempt) and are not returned
// separately.
func TaskFuncs(info *types.Info, files []*ast.File) []TaskFunc {
	var out []TaskFunc
	seen := map[*ast.BlockStmt]bool{}
	add := func(name string, body *ast.BlockStmt, sig *types.Signature) {
		if body == nil || seen[body] {
			return
		}
		seen[body] = true
		out = append(out, TaskFunc{Name: name, Body: body, Sig: sig})
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sig := obj.Type().(*types.Signature)
			if sig.Params().Len() > 0 && IsTaskContextPtr(sig.Params().At(0).Type()) {
				add(fd.Name.Name, fd.Body, sig)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			tv, ok := info.Types[call.Fun]
			if !ok || !tv.IsType() {
				return true
			}
			n2 := namedOf(tv.Type)
			if n2 == nil || !funcAdapters[n2.Origin().Obj().Name()] || !FromPkg(n2.Origin().Obj(), MapreducePath) {
				return true
			}
			lit, ok := call.Args[0].(*ast.FuncLit)
			if !ok {
				return true
			}
			if sig, ok := info.Types[lit].Type.(*types.Signature); ok {
				add(n2.Origin().Obj().Name()+" literal", lit.Body, sig)
			}
			return true
		})
	}
	return out
}

// ReduceValuesParam returns the values-slice parameter object of a
// Reduce-shaped task function — the slice parameter the engine may
// reuse between groups — or nil. The shape is (ctx, key, values, emit).
func ReduceValuesParam(tf TaskFunc) *types.Var {
	p := tf.Sig.Params()
	if p.Len() != 4 {
		return nil
	}
	if !IsEmitType(p.At(3).Type()) {
		return nil
	}
	if _, ok := p.At(2).Type().Underlying().(*types.Slice); !ok {
		return nil
	}
	return p.At(2)
}

// CodecAppendDstParam returns the dst scratch-buffer parameter of a
// codec Append method — shape Append(dst []byte, v T) []byte — or nil.
func CodecAppendDstParam(info *types.Info, fd *ast.FuncDecl) *types.Var {
	if fd.Name.Name != "Append" || fd.Recv == nil || fd.Body == nil {
		return nil
	}
	obj, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	sig := obj.Type().(*types.Signature)
	if sig.Params().Len() != 2 || sig.Results().Len() != 1 {
		return nil
	}
	if !isByteSlice(sig.Params().At(0).Type()) || !isByteSlice(sig.Results().At(0).Type()) {
		return nil
	}
	return sig.Params().At(0)
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// ObsEventConst resolves an expression to the name of the obs
// EventType constant it denotes ("phase_start" → "PhaseStart" etc.),
// or "" when it is not a reference to one.
func ObsEventConst(info *types.Info, e ast.Expr) string {
	var id *ast.Ident
	switch e := e.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return ""
	}
	obj, ok := info.Uses[id].(*types.Const)
	if !ok || !FromPkg(obj, ObsPath) {
		return ""
	}
	if NamedFrom(obj.Type(), "EventType", ObsPath) == nil {
		return ""
	}
	return obj.Name()
}

// IsObsEventType reports whether t is the obs.Event struct.
func IsObsEventType(t types.Type) bool {
	return NamedFrom(t, "Event", ObsPath) != nil
}

// RawComparerIface returns the mapreduce.RawComparer interface from
// the package that declared named (so fixture stubs work), or nil.
func RawComparerIface(mrPkg *types.Package) *types.Interface {
	if mrPkg == nil {
		return nil
	}
	obj := mrPkg.Scope().Lookup("RawComparer")
	if obj == nil {
		return nil
	}
	iface, ok := obj.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	return iface
}
