// Package taskdeterminism flags nondeterminism inside task code.
//
// The engine re-executes tasks: failed attempts are retried and slow
// ones get speculative backup attempts, and whichever attempt commits
// first wins. That is only sound when every attempt of a task produces
// byte-identical output. Three common ways to break that are calling
// the wall clock, drawing from the shared global rand generator, and
// emitting records while ranging over a map (iteration order is
// randomized per run).
//
// Allowed: *rand.Rand instances (code that seeds its own generator
// from job conf or the task ID is deterministic per attempt), rand
// constructors (New, NewSource, ...), and map iteration that does not
// emit (e.g. accumulating into a local that is sorted before
// emission).
package taskdeterminism

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/engineapi"
)

// Analyzer flags wall-clock reads, shared-generator randomness, and
// map-iteration-ordered emission inside task code.
var Analyzer = &analysis.Analyzer{
	Name: "taskdeterminism",
	Doc: "task code (TypedMapper/TypedReducer bodies, combiners included) must be " +
		"deterministic so retried and speculative attempts produce identical output; " +
		"flags time.Now/Since/Until, package-level math/rand calls, and emit inside " +
		"range-over-map",
	Run: run,
}

// timeFuncs are the wall-clock reads that make output vary per attempt.
var timeFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// randConstructors build a private, seedable generator and are the
// sanctioned escape hatch.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	for _, tf := range engineapi.TaskFuncs(pass.TypesInfo, pass.Files) {
		checkBody(pass, tf)
	}
	return nil
}

func checkBody(pass *analysis.Pass, tf engineapi.TaskFunc) {
	ast.Inspect(tf.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, tf, n)
		case *ast.RangeStmt:
			checkRange(pass, tf, n)
		}
		return true
	})
}

// calleeFunc resolves the called function object, or nil for dynamic
// calls, builtins, and conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

func checkCall(pass *analysis.Pass, tf engineapi.TaskFunc, call *ast.CallExpr) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if sig.Recv() == nil && timeFuncs[fn.Name()] {
			pass.Reportf(call.Pos(),
				"call to time.%s in task code %s: output would differ between retried or "+
					"speculative attempts; derive timestamps from input or job conf",
				fn.Name(), tf.Name)
		}
	case "math/rand", "math/rand/v2":
		// Package-level calls draw from the shared, unseeded global
		// generator; methods on a *rand.Rand the task seeded itself are
		// deterministic and allowed.
		if sig.Recv() == nil && !randConstructors[fn.Name()] {
			pass.Reportf(call.Pos(),
				"call to shared generator %s.%s in task code %s: use rand.New(rand.NewSource(seed)) "+
					"with a seed derived from job conf and the task ID",
				fn.Pkg().Name(), fn.Name(), tf.Name)
		}
	}
}

// checkRange flags TypedEmit calls lexically inside the body of a
// range over a map: emission order then follows Go's randomized map
// iteration order, so two attempts shuffle different byte streams.
func checkRange(pass *analysis.Pass, tf engineapi.TaskFunc, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		ftv, ok := pass.TypesInfo.Types[call.Fun]
		if !ok || !engineapi.IsEmitType(ftv.Type) {
			return true
		}
		pass.Reportf(call.Pos(),
			"emit inside range over map in task code %s: emission order follows map "+
				"iteration order, which differs between attempts; collect and sort keys first",
			tf.Name)
		return true
	})
}
