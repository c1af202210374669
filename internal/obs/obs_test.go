package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestNilBusIsSafe(t *testing.T) {
	var b *Bus
	if b.Active() {
		t.Fatal("nil bus reports active")
	}
	b.Emit(Event{Type: JobSubmitted, Job: "x"})
}

func TestBusFansOutAndStampsTime(t *testing.T) {
	r1, r2 := &Recorder{}, &Recorder{}
	b := NewBus(r1, r2)
	if !b.Active() {
		t.Fatal("bus with sinks reports inactive")
	}
	b.Emit(Event{Type: JobSubmitted, Job: "j"})
	for i, r := range []*Recorder{r1, r2} {
		evs := r.Events()
		if len(evs) != 1 {
			t.Fatalf("sink %d got %d events", i, len(evs))
		}
		if evs[0].Time.IsZero() {
			t.Errorf("sink %d: bus did not stamp Time", i)
		}
	}
	// An explicitly set Time must be preserved.
	at := time.Unix(100, 0)
	b.Emit(Event{Type: JobFinished, Job: "j", Time: at})
	if got := r1.ByType(JobFinished)[0].Time; !got.Equal(at) {
		t.Errorf("Time = %v, want %v", got, at)
	}
}

func TestBeginPairsStartAndEnd(t *testing.T) {
	rec := &Recorder{}
	b := NewBus(rec)
	// A Phase makes a phase whatever Type the caller set; its end keeps
	// the Job+Phase identity and carries the error held at close time.
	closePhase := b.Begin(Event{Type: JobSubmitted, Job: "j", Phase: "reduce", Parts: []PartStat{{Bytes: 5}}})
	err := errors.New("boom")
	phaseDur := closePhase(&err)
	// No Phase makes a pipeline span; a nil error pointer closes it clean.
	closeSpan := b.Begin(Event{Span: "s", Parent: "p", Detail: "d"})
	spanDur := closeSpan(nil)

	evs := rec.Events()
	if len(evs) != 4 {
		t.Fatalf("events: %d, want 4", len(evs))
	}
	ps, pe, ss, se := evs[0], evs[1], evs[2], evs[3]
	if ps.Type != PhaseStart || pe.Type != PhaseEnd || ss.Type != SpanStart || se.Type != SpanEnd {
		t.Fatalf("types: %s %s %s %s", ps.Type, pe.Type, ss.Type, se.Type)
	}
	if pe.Job != "j" || pe.Phase != "reduce" || pe.Err != "boom" || len(pe.Parts) != 0 {
		t.Errorf("phase end: %+v", pe)
	}
	if len(ps.Parts) != 1 {
		t.Errorf("phase start lost its Parts: %+v", ps)
	}
	if se.Span != "s" || se.Parent != "p" || se.Err != "" || se.Detail != "" {
		t.Errorf("span end: %+v", se)
	}
	if pe.Dur != phaseDur || se.Dur != spanDur || pe.Dur != pe.Time.Sub(ps.Time) {
		t.Errorf("durations: phase %v (returned %v), span %v (returned %v)", pe.Dur, phaseDur, se.Dur, spanDur)
	}

	// A nil bus emits nothing but still measures.
	var nb *Bus
	closeNil := nb.Begin(Event{Job: "j", Phase: "map"})
	time.Sleep(time.Millisecond)
	if d := closeNil(nil); d < time.Millisecond {
		t.Errorf("nil bus closer measured %v, want ≥ 1ms", d)
	}
}

func TestEmptyBusSkipsWork(t *testing.T) {
	b := NewBus()
	if b.Active() {
		t.Fatal("empty bus reports active")
	}
	b.Emit(Event{Type: JobSubmitted}) // no sinks: no-op
}

func TestRegistryPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("jobs_total", "Jobs.", nil).Inc()
	reg.Counter("tasks_total", "Tasks by phase.", Labels{"phase": "map"}).Add(3)
	reg.Counter("tasks_total", "Tasks by phase.", Labels{"phase": "reduce"}).Inc()
	h := reg.Histogram("dur_seconds", "Durations.", []float64{0.1, 1}, nil)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# HELP jobs_total Jobs.",
		"# TYPE jobs_total counter",
		"jobs_total 1",
		`tasks_total{phase="map"} 3`,
		`tasks_total{phase="reduce"} 1`,
		"# TYPE dur_seconds histogram",
		`dur_seconds_bucket{le="0.1"} 1`,
		`dur_seconds_bucket{le="1"} 2`,
		`dur_seconds_bucket{le="+Inf"} 3`,
		"dur_seconds_sum 5.55",
		"dur_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Counters never go down.
	c := reg.Counter("jobs_total", "", nil)
	c.Add(-5)
	if c.Value() != 1 {
		t.Errorf("negative Add changed counter: %d", c.Value())
	}
	// Same name+labels returns the same series.
	if reg.Counter("jobs_total", "", nil) != c {
		t.Error("registry returned a different counter for same name")
	}
}

func TestRegistrySnapshot(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", "", Labels{"k": "v"}).Add(7)
	reg.Histogram("b_seconds", "", nil, nil).Observe(2)
	snap := reg.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d points, want 2", len(snap))
	}
	if snap[0].Name != "a_total" || snap[0].Value != 7 || snap[0].Labels["k"] != "v" {
		t.Errorf("bad counter point: %+v", snap[0])
	}
	if snap[1].Name != "b_seconds" || snap[1].Count != 1 || snap[1].Sum != 2 {
		t.Errorf("bad histogram point: %+v", snap[1])
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot not JSON-serialisable: %v", err)
	}
}

func TestMetricsSinkDerivesEngineMetrics(t *testing.T) {
	reg := NewRegistry()
	s := NewMetricsSink(reg)
	s.Emit(Event{Type: JobSubmitted, Job: "j"})
	s.Emit(Event{Type: AttemptStarted, Phase: "map"})
	s.Emit(Event{Type: AttemptSucceeded, Phase: "map", Attempt: 0, Value: 2, Locality: "data-local", Dur: 20 * time.Millisecond})
	s.Emit(Event{Type: AttemptFailed, Phase: "map", Err: "boom"})
	s.Emit(Event{Type: AttemptKilled, Phase: "reduce"})
	s.Emit(Event{Type: PhaseStart, Phase: "reduce", Parts: []PartStat{{Part: 0, Bytes: 1000}, {Part: 1, Bytes: 234}}})
	s.Emit(Event{Type: PhaseEnd, Phase: "reduce", Dur: time.Millisecond})
	s.Emit(Event{Type: JobFinished, Job: "j", Dur: 50 * time.Millisecond})
	s.Emit(Event{Type: RPCRoundTrip, Node: "n1", Dur: 3 * time.Millisecond, Value: int64(2 * time.Millisecond)})
	s.Emit(Event{Type: RPCRoundTrip, Node: "n1", Dur: 3 * time.Millisecond, Err: "boom"})

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"mr_jobs_submitted_total 1",
		`mr_jobs_finished_total{status="succeeded"} 1`,
		`mr_task_attempts_scheduled_total{phase="map"} 1`,
		`mr_task_attempts_total{phase="map",status="succeeded"} 1`,
		`mr_task_attempts_total{phase="map",status="failed"} 1`,
		`mr_task_attempts_total{phase="reduce",status="killed"} 1`,
		"mr_speculative_killed_total 1",
		"mr_shuffle_bytes_total 1234",
		`mr_phase_duration_seconds_count{phase="reduce"} 1`,
		`mr_task_locality_total{locality="data-local"} 1`,
		`cluster_worker_tasks_total{status="succeeded",worker="n1"} 1`,
		`cluster_worker_tasks_total{status="failed",worker="n1"} 1`,
		"rpc_attempt_roundtrip_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The winner is attempt 0, but its task launched 2 attempts (a
	// failed backup): the histogram observes the launched count.
	if h := reg.Histogram("mr_attempts_per_task", "", attemptBuckets, nil); h.Sum() != 2 {
		t.Errorf("attempts_per_task sum = %g, want 2", h.Sum())
	}
}

func TestMetricsSinkPartitionCounters(t *testing.T) {
	reg := NewRegistry()
	s := NewMetricsSink(reg)
	s.Emit(Event{Type: PhaseStart, Phase: "reduce", Parts: []PartStat{
		{Part: 0, Runs: 2, Records: 3, Bytes: 10},
		{Part: 1, Runs: 2, Records: 97, Bytes: 50},
	}})
	// A second job's shuffle accumulates into the same partition series.
	s.Emit(Event{Type: PhaseStart, Phase: "reduce", Parts: []PartStat{
		{Part: 0, Runs: 1, Records: 1, Bytes: 4},
	}})
	// A phase opened without Parts (the map phase) adds nothing.
	s.Emit(Event{Type: PhaseStart, Phase: "map"})

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`shuffle_partition_records{partition="0"} 4`,
		`shuffle_partition_records{partition="1"} 97`,
		`shuffle_partition_bytes{partition="0"} 14`,
		`shuffle_partition_bytes{partition="1"} 50`,
		"mr_shuffle_bytes_total 64",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryGaugeExposition(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("queue_depth", "Depth.", Labels{"q": "a"})
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("gauge value = %d, want 7", g.Value())
	}
	// Same name+labels returns the same gauge.
	if reg.Gauge("queue_depth", "", Labels{"q": "a"}) != g {
		t.Error("registry returned a different gauge for same name+labels")
	}

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE queue_depth gauge",
		`queue_depth{q="a"} 7`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	snap := reg.Snapshot()
	if len(snap) != 1 || snap[0].Name != "queue_depth" || snap[0].Value != 7 {
		t.Errorf("gauge snapshot: %+v", snap)
	}
}

func TestRuntimeSamplerPopulatesGauges(t *testing.T) {
	reg := NewRegistry()
	stop := StartRuntimeSampler(reg, time.Hour) // first sample is immediate
	defer stop()
	if v := reg.Gauge("go_goroutines", "", nil).Value(); v <= 0 {
		t.Errorf("go_goroutines = %d, want > 0", v)
	}
	if v := reg.Gauge("go_heap_alloc_bytes", "", nil).Value(); v <= 0 {
		t.Errorf("go_heap_alloc_bytes = %d, want > 0", v)
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "go_heap_sys_bytes") {
		t.Error("runtime gauges missing from exposition")
	}
	stop()
	stop() // idempotent
}

func TestHistorySaveListFind(t *testing.T) {
	var h History
	for i, name := range []string{"job-a", "job-b", "job-a"} {
		h.Save(JobRecord{Job: name, WallMs: int64(i + 1)})
	}
	recs, err := h.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("listed %d records, want 3", len(recs))
	}
	for i, r := range recs {
		if r.Seq != i+1 {
			t.Errorf("record %d has seq %d", i, r.Seq)
		}
	}
	// Find by name returns the latest matching record.
	if rec, ok := h.Find("job-a"); !ok || rec.Seq != 3 {
		t.Errorf("Find(job-a) = %+v, %v; want seq 3", rec, ok)
	}
	// Find by sequence number.
	if rec, ok := h.Find("2"); !ok || rec.Job != "job-b" {
		t.Errorf("Find(2) = %+v, %v; want job-b", rec, ok)
	}
	if _, ok := h.Find("nope"); ok {
		t.Error("Find matched a non-existent key")
	}

	// The history is bounded: the oldest records make room and the
	// numbering goes on.
	for i := 0; i < historyKeep; i++ {
		h.Save(JobRecord{Job: fmt.Sprintf("filler-%d", i)})
	}
	recs, _ = h.List()
	if len(recs) != historyKeep || recs[0].Seq != 4 || recs[len(recs)-1].Seq != historyKeep+3 {
		t.Errorf("kept %d records, seqs %d..%d; want %d, 4..%d",
			len(recs), recs[0].Seq, recs[len(recs)-1].Seq, historyKeep, historyKeep+3)
	}
	if _, ok := h.Find("job-b"); ok {
		t.Error("a record beyond the bound is still findable")
	}
}

func TestStatusServerHandleAndShutdown(t *testing.T) {
	srv, err := NewStatusServer("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	srv.Handle("/trace/", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "trace-payload")
	}))

	resp, err := http.Get(srv.URL() + "/trace/j1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != "trace-payload" {
		t.Errorf("/trace/j1 -> %d %q", resp.StatusCode, body)
	}
	// Registered patterns are advertised on the index page.
	resp, err = http.Get(srv.URL() + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "/trace/") {
		t.Errorf("index does not advertise /trace/: %q", body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	// The listener is released: connecting again must fail.
	if _, err := http.Get(srv.URL() + "/"); err == nil {
		t.Error("server still serving after Shutdown")
	}
}

func TestStatusServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("mr_jobs_submitted_total", "Jobs.", nil).Inc()

	srv, err := NewStatusServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/"); code != 200 || !strings.Contains(body, "/metrics.json") {
		t.Errorf("/ -> %d %q", code, body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "mr_jobs_submitted_total 1") {
		t.Errorf("/metrics -> %d %q", code, body)
	}
	if code, body := get("/metrics.json"); code != 200 || !strings.Contains(body, "mr_jobs_submitted_total") {
		t.Errorf("/metrics.json -> %d %q", code, body)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline -> %d", code)
	}

	// The Extra hook appends to /metrics.
	srv.Extra = func() string { return "extra_gauge 42\n" }
	if _, body := get("/metrics"); !strings.Contains(body, "extra_gauge 42") {
		t.Error("/metrics missing Extra output")
	}
}
