package lint_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
	"repro/internal/lint/loader"
)

// TestRepoIsClean runs the whole analyzer suite over the repository,
// the same gate CI applies via cmd/gepetolint. A violation introduced
// anywhere in the engine fails the normal test run, not just the lint
// step.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole repo")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root not found at %s: %v", root, err)
	}
	res, err := loader.Load(root, "./...")
	if err != nil {
		t.Fatalf("loading repo: %v", err)
	}
	targets := res.Targets()
	if len(targets) < 15 {
		t.Fatalf("suspiciously few packages loaded: %d", len(targets))
	}
	for _, pkg := range targets {
		for _, a := range lint.Suite() {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      res.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			if err := a.Run(pass); err != nil {
				t.Fatalf("%s on %s: %v", a.Name, pkg.PkgPath, err)
			}
			for _, d := range pass.Diagnostics() {
				t.Errorf("%s", d)
			}
		}
	}
}

// TestSuiteStable pins the suite contents: dropping an analyzer from
// the registry silently would gut the CI gate.
func TestSuiteStable(t *testing.T) {
	want := []string{
		"atomicmix", "ctxflow", "emitretain", "errdrop", "gobwire",
		"lockheld", "rawkeyorder", "taskdeterminism",
	}
	suite := lint.Suite()
	if len(suite) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(suite), len(want))
	}
	for i, a := range suite {
		if a.Name != want[i] {
			t.Errorf("suite[%d] = %s, want %s", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("%s: incomplete analyzer (missing Doc or Run)", a.Name)
		}
	}
}
