package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	obstrace "repro/internal/obs/trace"
)

// chdir moves into a temp dir for the duration of a test (the CLI
// works with relative paths).
func chdir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
	return dir
}

func TestCLIGenerateSampleAttack(t *testing.T) {
	chdir(t)
	if err := cmdGenerate([]string{"-users", "2", "-traces", "8000", "-seed", "1", "-out", "data", "-truth", "truth.json"}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat("truth.json"); err != nil {
		t.Fatal("truth.json not written")
	}
	if err := cmdSample([]string{"-in", "data", "-out", "sampled", "-window", "1m", "-chunk", "1"}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir("sampled")
	if err != nil || len(entries) == 0 {
		t.Fatalf("no sampled output: %v", err)
	}
	if err := cmdAttack([]string{"-in", "sampled", "-truth", "truth.json", "-chunk", "1"}); err != nil {
		t.Fatal(err)
	}
}

func TestCLIGeneratePresets(t *testing.T) {
	chdir(t)
	if err := cmdGenerate([]string{"-preset", "bogus", "-out", "d"}); err == nil {
		t.Fatal("bogus preset should error")
	}
	// The real presets are too large for a test; validated in geolife.
}

func TestCLIKMeansAndDJClusterAndRTree(t *testing.T) {
	chdir(t)
	if err := cmdGenerate([]string{"-users", "2", "-traces", "6000", "-out", "data"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSample([]string{"-in", "data", "-out", "sampled", "-chunk", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdKMeans([]string{"-in", "sampled", "-k", "3", "-maxiter", "10", "-chunk", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdKMeans([]string{"-in", "sampled", "-distance", "nonsense"}); err == nil {
		t.Fatal("bad distance should error")
	}
	if err := cmdDJCluster([]string{"-in", "sampled", "-chunk", "1", "-top", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdRTree([]string{"-in", "sampled", "-curve", "hilbert", "-chunk", "1"}); err != nil {
		t.Fatal(err)
	}
}

func TestCLISanitize(t *testing.T) {
	chdir(t)
	if err := cmdGenerate([]string{"-users", "1", "-traces", "3000", "-out", "data"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSanitize([]string{"-in", "data", "-out", "masked", "-mechanism", "gaussian", "-sigma", "50", "-chunk", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSanitize([]string{"-in", "data", "-out", "cloaked", "-mechanism", "cloak", "-cell", "300", "-chunk", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSanitize([]string{"-in", "data", "-out", "x", "-mechanism", "nope"}); err == nil {
		t.Fatal("unknown mechanism should error")
	}
}

func TestCLIVisualize(t *testing.T) {
	chdir(t)
	if err := cmdGenerate([]string{"-users", "2", "-traces", "2000", "-out", "data"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdVisualize([]string{"-in", "data", "-out", "map.svg", "-title", "test"}); err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile("map.svg")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(body), "<svg") {
		t.Fatal("not an SVG")
	}
}

func TestCLIConvertRoundTrip(t *testing.T) {
	chdir(t)
	if err := cmdGenerate([]string{"-users", "2", "-traces", "3000", "-out", "data"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdConvert([]string{"-in", "data", "-out", "plttree", "-from", "rec", "-to", "plt"}); err != nil {
		t.Fatal(err)
	}
	// GeoLife layout: <user>/Trajectory/*.plt
	matches, _ := filepath.Glob("plttree/*/Trajectory/*.plt")
	if len(matches) == 0 {
		t.Fatal("no .plt session files written")
	}
	if err := cmdConvert([]string{"-in", "plttree", "-out", "back", "-from", "plt", "-to", "rec"}); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir("back")
	if len(entries) != 2 {
		t.Fatalf("back-converted users = %d, want 2", len(entries))
	}
	if err := cmdConvert([]string{"-in", "data", "-out", "x", "-from", "bogus"}); err == nil {
		t.Fatal("bad format should error")
	}
	if err := cmdConvert([]string{}); err == nil {
		t.Fatal("missing paths should error")
	}
}

func TestCLIErrorsOnMissingInput(t *testing.T) {
	chdir(t)
	for name, run := range map[string]func([]string) error{
		"sample":    cmdSample,
		"kmeans":    cmdKMeans,
		"djcluster": cmdDJCluster,
		"rtree":     cmdRTree,
		"attack":    cmdAttack,
		"sanitize":  cmdSanitize,
		"visualize": cmdVisualize,
	} {
		if err := run([]string{"-in", "does-not-exist"}); err == nil {
			t.Errorf("%s: want error for missing input", name)
		}
	}
}

func TestCLIStatsSocialMMC(t *testing.T) {
	chdir(t)
	if err := cmdGenerate([]string{"-users", "2", "-traces", "10000", "-out", "data"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdStats([]string{"-in", "data"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSocial([]string{"-in", "data", "-chunk", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdMMC([]string{"-in", "data", "-chunk", "1"}); err != nil {
		t.Fatal(err)
	}
}

func TestCLISampleJSONReport(t *testing.T) {
	chdir(t)
	if err := cmdGenerate([]string{"-users", "1", "-traces", "2000", "-out", "data"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSample([]string{"-in", "data", "-out", "s", "-report", "job.json", "-chunk", "1"}); err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile("job.json")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `"map_input_records"`) {
		t.Fatalf("report missing counters: %s", body)
	}
}

// captureStdout runs f with os.Stdout redirected to a pipe and returns
// what it printed.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := f()
	w.Close()
	os.Stdout = old
	data, readErr := io.ReadAll(r)
	r.Close()
	if runErr != nil {
		t.Fatalf("command failed: %v", runErr)
	}
	if readErr != nil {
		t.Fatal(readErr)
	}
	return string(data)
}

// A cluster command's run history survives the process: -historydir
// mirrors its trace, and analyze reads it back by job name, by
// sequence number and as JSON.
func TestCLIHistoryRoundTrip(t *testing.T) {
	chdir(t)
	// An empty store is not an error — just a hint.
	if err := cmdAnalyze(nil); err != nil {
		t.Fatalf("analyze over empty dir: %v", err)
	}
	if err := cmdGenerate([]string{"-users", "2", "-traces", "6000", "-out", "data"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSample([]string{"-in", "data", "-out", "sampled", "-chunk", "1"}); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(defaultHistoryDir, "_trace", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no mirrored trace files: %v %v", files, err)
	}
	if !strings.Contains(files[0], "sampling") {
		t.Errorf("trace file %q does not name the job", files[0])
	}
	if list := captureStdout(t, func() error { return cmdAnalyze(nil) }); !strings.Contains(list, "sampling") {
		t.Errorf("trace listing missing the sampling run:\n%s", list)
	}
	for _, args := range [][]string{
		{"sampling"},          // by job name
		{"1"},                 // by sequence number
		{"-json", "sampling"}, // JSON dump
	} {
		if out := captureStdout(t, func() error { return cmdAnalyze(args) }); !strings.Contains(out, "sampling") {
			t.Errorf("analyze %v does not show the sampling job:\n%s", args, out)
		}
	}
	if err := cmdAnalyze([]string{"no-such-job"}); err == nil {
		t.Fatal("analyze of unknown job should error")
	}
}

func TestCLIAnalyzeKMeansRun(t *testing.T) {
	chdir(t)
	// An empty trace store is a hint, not an error.
	if out := captureStdout(t, func() error { return cmdAnalyze(nil) }); !strings.Contains(out, "no traces") {
		t.Errorf("empty-store analyze output: %q", out)
	}
	if err := cmdGenerate([]string{"-users", "2", "-traces", "6000", "-out", "data"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSample([]string{"-in", "data", "-out", "sampled", "-chunk", "1"}); err != nil {
		t.Fatal(err)
	}
	// The k-means run of the acceptance criterion: cluster commands
	// mirror causal traces to -historydir by default.
	if err := cmdKMeans([]string{"-in", "sampled", "-k", "3", "-maxiter", "4", "-chunk", "1"}); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(defaultHistoryDir, "_trace", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no mirrored trace files: %v %v", files, err)
	}

	// The bare command lists every stored trace.
	list := captureStdout(t, func() error { return cmdAnalyze(nil) })
	if !strings.Contains(list, "seq") || !strings.Contains(list, "kmeans") {
		t.Errorf("trace listing missing kmeans run:\n%s", list)
	}

	// Analyze the k-means trace (findable by root-name prefix via a
	// contained job, or here by its sequence number: sampling ran first).
	out := captureStdout(t, func() error { return cmdAnalyze([]string{"-json", "2"}) })
	var a struct {
		Root   string `json:"root"`
		WallUs int64  `json:"wall_us"`
		Jobs   []struct {
			Job    string `json:"job"`
			WallUs int64  `json:"wall_us"`
			Path   []struct {
				Kind string `json:"kind"`
			} `json:"path"`
			Phases []struct {
				Phase string  `json:"phase"`
				DurUs int64   `json:"dur_us"`
				Pct   float64 `json:"pct"`
			} `json:"phases"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal([]byte(out), &a); err != nil {
		t.Fatalf("analyze -json output not JSON: %v\n%s", err, out)
	}
	if !strings.HasPrefix(a.Root, "kmeans:") {
		t.Fatalf("analyzed root %q, want the kmeans span", a.Root)
	}
	if len(a.Jobs) == 0 {
		t.Fatal("no jobs in the k-means analysis")
	}
	// Acceptance criterion: per-phase critical-path durations sum to
	// within 5% of each job's recorded wall-clock.
	for _, j := range a.Jobs {
		if j.WallUs <= 0 || len(j.Phases) == 0 || len(j.Path) == 0 {
			t.Fatalf("degenerate job analysis: %+v", j)
		}
		var sum int64
		for _, p := range j.Phases {
			sum += p.DurUs
		}
		diff := sum - j.WallUs
		if diff < 0 {
			diff = -diff
		}
		if float64(diff) > 0.05*float64(j.WallUs) {
			t.Errorf("job %s: phase durations sum to %dµs, wall %dµs (off by %.1f%%, want ≤5%%)",
				j.Job, sum, j.WallUs, 100*float64(diff)/float64(j.WallUs))
		}
	}

	// The default ASCII report names the critical path and attribution,
	// and draws each job's per-node attempt timeline: one lane or more
	// for every node that ran an attempt.
	report := captureStdout(t, func() error { return cmdAnalyze([]string{"2"}) })
	for _, want := range []string{"critical path", "%", "legend:"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	tr, ok := obstrace.NewStore(obs.NewDirFS(defaultHistoryDir)).Find("2")
	if !ok {
		t.Fatal("stored k-means trace not found")
	}
	nodes := map[string]bool{}
	tr.Root.Walk(func(s *obstrace.Span) {
		if s.Kind == obstrace.KindAttempt {
			nodes[s.Node] = true
		}
	})
	if len(nodes) == 0 {
		t.Fatal("the k-means trace has no attempts")
	}
	for node := range nodes {
		lane := false
		for _, ln := range strings.Split(report, "\n") {
			lane = lane || (strings.HasPrefix(ln, node+" ") && strings.Contains(ln, " | "))
		}
		if !lane {
			t.Errorf("report has no timeline lane for %s:\n%s", node, report)
		}
	}

	// -chrome exports a valid Perfetto-loadable trace_event file.
	_ = captureStdout(t, func() error { return cmdAnalyze([]string{"-chrome", "kmeans-trace.json", "2"}) })
	data, err := os.ReadFile("kmeans-trace.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obstrace.DecodeChrome(data); err != nil {
		t.Fatalf("exported Chrome trace invalid: %v", err)
	}

	if err := cmdAnalyze([]string{"no-such-trace"}); err == nil {
		t.Fatal("analyze of unknown key should error")
	}
}
