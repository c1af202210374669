package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// opener is the one method that opens a span or a phase, obs.Bus.Begin.
// No other function in the module may take its name, so matching it by
// name alone is exact.
const opener = "Begin"

// TestSpansOpenOnlyThroughBegin guards the span tree's pairing: every
// SpanStart/PhaseStart gets its End because only Bus.Begin emits them,
// and Begin hands the End back as a closer. Outside internal/obs no
// non-test file may name the four event types, and none may discard
// the closer (a closer kept in an unused variable does not compile).
// The runtime counterpart is core's failing-pipeline test, which
// asserts that no span of a failed run is left running.
func TestSpansOpenOnlyThroughBegin(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	report := func(n ast.Node, msg string) { t.Errorf("%s: %s", fset.Position(n.Pos()), msg) }
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			rel, _ := filepath.Rel(root, path)
			if filepath.ToSlash(rel) == "internal/obs" || d.Name() == "testdata" || (rel != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		obsName := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); strings.HasSuffix(p, "/internal/obs") {
				obsName = "obs"
				if imp.Name != nil {
					obsName = imp.Name.Name
				}
			}
		}
		discarded := "discards the closer of " + opener
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Name.Name == opener {
					report(n, "declares "+opener+", the name the span guard reserves for obs.Bus")
				}
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok && obsName != "" && id.Name == obsName {
					switch n.Sel.Name {
					case "SpanStart", "SpanEnd", "PhaseStart", "PhaseEnd":
						report(n, "names obs."+n.Sel.Name+"; open spans and phases with obs.Bus.Begin")
					}
				}
			case *ast.ExprStmt:
				if isOpen(n.X) {
					report(n, discarded)
				}
			case *ast.GoStmt:
				if isOpen(n.Call) {
					report(n, discarded)
				}
			case *ast.DeferStmt:
				if isOpen(n.Call) {
					report(n, discarded+"; defer the closer: defer bus.Begin(ev)(&err)")
				}
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					break
				}
				for i, rhs := range n.Rhs {
					if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name == "_" && isOpen(rhs) {
						report(n, discarded)
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// isOpen reports whether e is a call x.Begin(...).
func isOpen(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == opener
}
