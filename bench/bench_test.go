package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/geolife"
	"repro/internal/gepeto"
	"repro/internal/gepeto/synth"
)

// TestMain lets the test binary play the kmeans-tcp worker role, the
// way the benchmark binary re-executes itself.
func TestMain(m *testing.M) {
	if os.Getenv(envRole) == "worker" {
		if err := workerMain(); err != nil {
			fmt.Fprintln(os.Stderr, "bench worker:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

// tinySize runs every workload and probe in well under a second each.
var tinySize = sizing{
	big:         geolife.Config{Users: 8, TotalTraces: 20_000},
	small:       geolife.Config{Users: 6, TotalTraces: 12_000},
	synth:       synth.Options{Users: 2_000, TracesPerUser: 8, TemplateUsers: 4},
	queries:     50,
	probeScale:  0.02,
	probePasses: 1,
}

// declared is BENCHMARK.json as the driver reads it.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	var d declared
	if err := readJSON("../BENCHMARK.json", &d); err != nil {
		t.Fatal(err)
	}
	return d
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclarationMatchesCode holds BENCHMARK.json and the code's metric
// and workload tables in step, within the contract's limits.
func TestDeclarationMatchesCode(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) || len(d.Workloads) > 8 {
		t.Fatalf("%d workloads declared, code has %d (limit 8)", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q, code has %q (or their reasons differ)", i, w.Name, workloads[i].name)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or reason", w.Name)
		}
	}
	if len(d.EndToEnd) != len(endToEndMetrics) || len(d.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics declared, code has %d (limit 16)", len(d.EndToEnd), len(endToEndMetrics))
	}
	seen := map[string]bool{}
	setup := false
	for i, m := range d.EndToEnd {
		if got := (metricDef{m.Name, m.Unit, m.Better}); got != endToEndMetrics[i] {
			t.Errorf("end-to-end metric %d: declared %v, code has %v", i, got, endToEndMetrics[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		seen[m.Name] = true
	}
	if !setup {
		t.Error("setup_s (s, lower) is not declared")
	}
	if len(d.PerLayer) != len(perLayerMetrics) || len(d.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics declared, code has %d (limit 128)", len(d.PerLayer), len(perLayerMetrics))
	}
	for i, m := range d.PerLayer {
		if m != perLayerMetrics[i] {
			t.Errorf("per-layer metric %d: declared %v, code has %v", i, m, perLayerMetrics[i])
		}
		if seen[m.Name] {
			t.Errorf("%s declared twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %+v: bad name, unit or direction", m)
		}
	}
	if d.RunSeconds < 1 || d.RunSeconds > 60 || len(d.Paths) != 1 || d.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", d.RunSeconds, d.Paths)
	}
}

// TestEveryWorkloadAndProbe drives all five workloads, traced, and all
// probes at tiny scale, and checks that together they emit every
// declared metric exactly once and that the phase shares tile the wall.
func TestEveryWorkloadAndProbe(t *testing.T) {
	d := readDeclared(t)
	pr, err := runProbes(tinySize, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, why := range pr.Missing {
		t.Errorf("probe %s failed: %s", name, why)
	}
	var spans []span
	for i := range workloads {
		w := &workloads[i]
		rep := runWorkload(w, tinySize, plan{seed: 1, setups: 1, reps: 2, traced: true})
		if rep.Failed != 0 || rep.Attempted != 4 {
			t.Fatalf("%s: %d of %d repetitions failed: %v", w.name, rep.Failed, rep.Attempted, rep.Errors)
		}
		for _, m := range d.EndToEnd {
			if v, ok := rep.EndToEnd[m.Name]; !ok || !(v.Value > 0) || v.Unit != m.Unit {
				t.Errorf("%s: end-to-end %s = %+v", w.name, m.Name, v)
			}
		}
		if got := rep.EndToEnd["failed_share"].Value; got != 0 {
			t.Errorf("%s: failed_share %v", w.name, got)
		}
		for _, m := range d.PerLayer {
			n := 0
			if v, ok := rep.PerLayer[m.Name]; ok {
				n++
				if v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: %s = %+v", w.name, m.Name, v)
				}
			}
			if _, ok := rep.Missing[m.Name]; ok {
				n++
			}
			if _, ok := pr.Values[m.Name]; ok {
				n++
			}
			if n != 1 {
				t.Errorf("%s: per-layer metric %s emitted %d times, want exactly once", w.name, m.Name, n)
			}
		}
		if len(rep.PerLayer)+len(rep.Missing)+len(pr.Values) != len(d.PerLayer) {
			t.Errorf("%s: emits a per-layer metric that is not declared", w.name)
		}
		sum := 0.0
		for _, s := range []string{"gepeto.driver_share", "mapreduce.map_share", "mapreduce.shuffle_share", "mapreduce.reduce_share", "mapreduce.job_overhead_share"} {
			sum += rep.PerLayer[s].Value
		}
		if math.Abs(sum-1) > 0.05 {
			t.Errorf("%s: phase shares sum to %v, want 1 ± 0.05", w.name, sum)
		}
		_, rpc := rep.PerLayer["cluster.rpc.calls_per_iter"]
		if rpc != (w.name == "kmeans-tcp") {
			t.Errorf("%s: cluster.rpc.calls_per_iter reported = %v", w.name, rpc)
		}
		spans = append(spans, rep.Spans...)
	}

	// The Chrome trace must load: complete events with a duration, named
	// processes, and every parent resolvable inside its workload.
	events := chromeTrace(append(spans, pr.Spans...))
	data, err := json.Marshal(events)
	if err != nil {
		t.Fatal(err)
	}
	var back []map[string]any
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	cats := map[string]int{}
	for _, e := range back {
		switch e["ph"] {
		case "M":
		case "X":
			if _, ok := e["dur"]; !ok {
				t.Fatalf("complete event without dur: %v", e)
			}
			cats[e["cat"].(string)]++
		default:
			t.Fatalf("unexpected event phase: %v", e)
		}
	}
	for _, cat := range []string{"setup", "rep", "pipeline", "job", "map", "reduce", "verify", "probe-pass"} {
		if cats[cat] == 0 {
			t.Errorf("trace has no %q span", cat)
		}
	}
	for _, s := range spans {
		if s.Cat == "pipeline" && selfUs(spans, s) < 0 {
			t.Errorf("%s: pipeline span shorter than its jobs", s.Workload)
		}
	}
}

// selfUs is a span's duration minus the part its children cover: the
// definition README.md gives for reading the trace. IDs are unique
// within a workload only.
func selfUs(spans []span, s span) int64 {
	self := s.EndUs - s.StartUs
	for _, c := range spans {
		if c.Parent == s.ID && c.Workload == s.Workload {
			self -= c.EndUs - c.StartUs
		}
	}
	return self
}

// TestVerifierRejectsPerturbedCentroid moves one centroid by one record
// quantum; the exact verifier must refuse it and accept the original.
func TestVerifierRejectsPerturbedCentroid(t *testing.T) {
	r := findWorkload("kmeans-text").newRunner(tinySize, 3).(*inproc)
	if _, err := r.setup(nil); err != nil {
		t.Fatal(err)
	}
	if err := r.reference(); err != nil {
		t.Fatal(err)
	}
	out, _, err := r.p.run(r.tk, r.seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.p.verify(r.ref, out); err != nil {
		t.Fatalf("unperturbed result rejected: %v", err)
	}
	res := out.(*gepeto.KMeansResult)
	res.Centroids[4].Lon += 1e-6
	if _, err := r.p.verify(r.ref, res); err == nil {
		t.Fatal("verifier accepted a centroid moved by 1e-6 degrees")
	}
	res.Centroids[4].Lon -= 1e-6
	res.Sizes[0]++
	if _, err := r.p.verify(r.ref, res); err == nil {
		t.Fatal("verifier accepted a cluster size off by one")
	}
}

// TestSupervisorKillsAtDeadline: a child that never finishes is killed
// with its whole process group, and the supervisor says why.
func TestSupervisorKillsAtDeadline(t *testing.T) {
	sleep, err := exec.LookPath("sleep")
	if err != nil {
		t.Skip("no sleep binary")
	}
	s := newSupervisor()
	defer s.stop()
	cmd := exec.Command(sleep, "60")
	t0 := time.Now()
	_, err = s.run(cmd, 200*time.Millisecond)
	if err != errDeadline {
		t.Fatalf("err = %v, want the deadline error", err)
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Fatalf("kill took %v", d)
	}
	if cmd.ProcessState == nil || cmd.ProcessState.Success() {
		t.Fatalf("child was not killed: %v", cmd.ProcessState)
	}
}

// TestCompare: a difference inside the bound passes, one outside it or
// any rise in failed_share does not, each on its own workload's row.
func TestCompare(t *testing.T) {
	bf := benchmarkFile{}
	if err := readJSON("../BENCHMARK.json", &bf); err != nil {
		t.Fatal(err)
	}
	doc := func(wall, failed float64) document {
		return document{Workloads: []workloadReport{{Name: "w", EndToEnd: map[string]metricValue{
			"wall_s": {Value: wall}, "records_per_s": {Value: 100 / wall},
			"alloc_bytes_per_record": {Value: 1000}, "setup_s": {Value: 2}, "failed_share": {Value: failed},
		}}}}
	}
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	var bound float64
	for _, m := range bf.EndToEnd {
		if m.Name == "wall_s" {
			bound = m.Bound
		}
	}
	if n := compareDocuments(null, bf, doc(2, 0), doc(2*(1+bound/2), 0)); n != 0 {
		t.Errorf("slower by half the bound: %d differences flagged, want 0", n)
	}
	if n := compareDocuments(null, bf, doc(2, 0), doc(1.5, 0)); n != 0 {
		t.Errorf("faster: %d differences flagged, want 0", n)
	}
	if n := compareDocuments(null, bf, doc(2, 0), doc(2*(1+3*bound), 0)); n != 2 {
		t.Errorf("slower by three times the bound: %d differences flagged, want wall_s and records_per_s", n)
	}
	if n := compareDocuments(null, bf, doc(2, 0), doc(2, 0.25)); n != 1 {
		t.Errorf("failed_share rose: %d differences flagged, want 1", n)
	}
}
