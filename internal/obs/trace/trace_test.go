package trace

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// serve runs one request through a handler and returns body + status.
func serve(t *testing.T, h http.Handler, url string) (string, int) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	return rec.Body.String(), rec.Code
}

var fixtureBase = time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)

// at returns the fixture base time plus an offset in microseconds.
func at(us int64) time.Time { return fixtureBase.Add(time.Duration(us) * time.Microsecond) }

// fixtureEvents is a deterministic pipeline run: a root span holding a
// sub-span holding one job, with a straggling map task rescued by a
// speculative backup, a failed-then-retried map task, and two reducers
// behind a skewed three-partition shuffle.
func fixtureEvents() []obs.Event {
	mk := func(t obs.EventType, us int64, f obs.Event) obs.Event {
		f.Type = t
		f.Time = at(us)
		return f
	}
	return []obs.Event{
		mk(obs.SpanStart, 0, obs.Event{Span: "pipe", Detail: "fixture"}),
		mk(obs.SpanStart, 1000, obs.Event{Span: "pipe/sub", Parent: "pipe"}),
		mk(obs.JobSubmitted, 2000, obs.Event{Job: "job-a", Parent: "pipe/sub", Detail: "maps=3 reducers=3"}),
		mk(obs.PhaseStart, 2100, obs.Event{Job: "job-a", Phase: "map"}),
		mk(obs.AttemptStarted, 2200, obs.Event{Job: "job-a", Phase: "map", Task: "map-0000", Node: "n1", Locality: "data-local"}),
		mk(obs.AttemptStarted, 2200, obs.Event{Job: "job-a", Phase: "map", Task: "map-0001", Node: "n2"}),
		mk(obs.AttemptStarted, 2200, obs.Event{Job: "job-a", Phase: "map", Task: "map-0002", Node: "n3"}),
		mk(obs.AttemptFailed, 2500, obs.Event{Job: "job-a", Phase: "map", Task: "map-0002", Node: "n3", Err: "boom"}),
		mk(obs.AttemptStarted, 2600, obs.Event{Job: "job-a", Phase: "map", Task: "map-0002", Attempt: 1, Node: "n1"}),
		mk(obs.AttemptSucceeded, 3000, obs.Event{Job: "job-a", Phase: "map", Task: "map-0000", Node: "n1", Locality: "data-local"}),
		mk(obs.AttemptSucceeded, 3100, obs.Event{Job: "job-a", Phase: "map", Task: "map-0002", Attempt: 1, Node: "n1"}),
		// map-0001 straggles; a backup on n1 wins, the original is killed.
		mk(obs.AttemptStarted, 4000, obs.Event{Job: "job-a", Phase: "map", Task: "map-0001", Attempt: 1, Node: "n1", Backup: true}),
		mk(obs.AttemptSucceeded, 4500, obs.Event{Job: "job-a", Phase: "map", Task: "map-0001", Attempt: 1, Node: "n1", Backup: true}),
		mk(obs.AttemptKilled, 4600, obs.Event{Job: "job-a", Phase: "map", Task: "map-0001", Node: "n2"}),
		mk(obs.PhaseEnd, 5000, obs.Event{Job: "job-a", Phase: "map"}),
		mk(obs.PhaseStart, 6100, obs.Event{Job: "job-a", Phase: "reduce", Parts: []obs.PartStat{
			{Part: 0, Runs: 1, Records: 2, Bytes: 100},
			{Part: 1, Runs: 1, Records: 4, Bytes: 200},
			{Part: 2, Runs: 3, Records: 94, Bytes: 5700},
		}}),
		mk(obs.AttemptStarted, 6200, obs.Event{Job: "job-a", Phase: "reduce", Task: "reduce-0000", Node: "n2"}),
		mk(obs.AttemptStarted, 6200, obs.Event{Job: "job-a", Phase: "reduce", Task: "reduce-0001", Node: "n3"}),
		mk(obs.AttemptSucceeded, 6500, obs.Event{Job: "job-a", Phase: "reduce", Task: "reduce-0001", Node: "n3"}),
		mk(obs.AttemptSucceeded, 7000, obs.Event{Job: "job-a", Phase: "reduce", Task: "reduce-0000", Node: "n2"}),
		mk(obs.PhaseEnd, 7100, obs.Event{Job: "job-a", Phase: "reduce"}),
		mk(obs.JobFinished, 7200, obs.Event{Job: "job-a", Dur: 5200 * time.Microsecond}),
		mk(obs.SpanEnd, 7300, obs.Event{Span: "pipe/sub"}),
		mk(obs.SpanEnd, 7500, obs.Event{Span: "pipe"}),
	}
}

func TestAssembleBuildsCausalTree(t *testing.T) {
	trees := Assemble(fixtureEvents())
	if len(trees) != 1 {
		t.Fatalf("trees: %d, want 1", len(trees))
	}
	tr := trees[0]
	root := tr.Root
	if root.Kind != KindPipeline || root.Name != "pipe" {
		t.Fatalf("root = %s %q", root.Kind, root.Name)
	}
	if root.StartUs != 0 || root.EndUs != 7500 {
		t.Errorf("root span [%d,%d], want [0,7500]", root.StartUs, root.EndUs)
	}
	if tr.StartUnixMs != fixtureBase.UnixMilli() {
		t.Errorf("anchor = %d, want %d", tr.StartUnixMs, fixtureBase.UnixMilli())
	}
	if len(root.Children) != 1 || root.Children[0].Name != "pipe/sub" {
		t.Fatalf("root children: %+v", root.Children)
	}
	job := root.Job("job-a")
	if job == nil {
		t.Fatal("job-a not linked under the pipeline")
	}
	if job.StartUs != 2000 || job.EndUs != 7200 || job.Status != StatusSucceeded {
		t.Errorf("job span: [%d,%d] %s", job.StartUs, job.EndUs, job.Status)
	}
	if len(job.Children) != 2 {
		t.Fatalf("phases: %d, want 2", len(job.Children))
	}
	mapPhase := job.Children[0]
	if mapPhase.Name != "map" || len(mapPhase.Children) != 5 {
		t.Fatalf("map phase %q with %d attempts, want 5", mapPhase.Name, len(mapPhase.Children))
	}
	statuses := map[string]string{}
	for _, a := range mapPhase.Children {
		statuses[fmt.Sprintf("%s/%04d", a.Name, a.Attempt)] = a.Status
	}
	for key, want := range map[string]string{
		"map-0000/0000": StatusSucceeded,
		"map-0001/0000": StatusKilled,
		"map-0001/0001": StatusSucceeded,
		"map-0002/0000": StatusFailed,
		"map-0002/0001": StatusSucceeded,
	} {
		if statuses[key] != want {
			t.Errorf("attempt %s status = %q, want %q", key, statuses[key], want)
		}
	}
	// The backup winner keeps its Backup mark; the failure its error.
	for _, a := range mapPhase.Children {
		if a.Name == "map-0001" && a.Attempt == 1 && !a.Backup {
			t.Error("backup attempt lost its Backup mark")
		}
		if a.Name == "map-0002" && a.Attempt == 0 && a.Error != "boom" {
			t.Errorf("failed attempt error = %q", a.Error)
		}
	}
	// The reduce phase opens with the shuffle's partition summary.
	reduce := job.Children[1]
	if reduce.Name != "reduce" || len(reduce.Parts) != 3 || reduce.Parts[2].Bytes != 5700 {
		t.Fatalf("reduce span: %+v", reduce)
	}
}

// A phase that ends with an error is failed in the tree and keeps the
// reason, as a failed span or job does.
func TestAssembleMarksFailedPhase(t *testing.T) {
	trees := Assemble([]obs.Event{
		{Type: obs.JobSubmitted, Time: at(0), Job: "job-f"},
		{Type: obs.PhaseStart, Time: at(100), Job: "job-f", Phase: "map"},
		{Type: obs.PhaseEnd, Time: at(200), Job: "job-f", Phase: "map", Err: "boom"},
		{Type: obs.JobFinished, Time: at(300), Job: "job-f", Err: "mapreduce: job job-f: boom"},
	})
	if len(trees) != 1 {
		t.Fatalf("trees: %d, want 1", len(trees))
	}
	job := trees[0].Root
	if job.Status != StatusFailed || len(job.Children) != 1 {
		t.Fatalf("job span: %s with %d phases", job.Status, len(job.Children))
	}
	if p := job.Children[0]; p.Status != StatusFailed || p.Error != "boom" || p.EndUs != 200 {
		t.Errorf("map phase: status %q error %q end %d, want failed \"boom\" 200", p.Status, p.Error, p.EndUs)
	}
}

func TestAssembleClosesOpenSpansAtLastEvent(t *testing.T) {
	evs := fixtureEvents()
	// Cut the stream before the SpanEnds and the JobFinished.
	var cut []obs.Event
	for _, e := range evs {
		if e.Type == obs.SpanEnd || e.Type == obs.JobFinished {
			continue
		}
		cut = append(cut, e)
	}
	trees := Assemble(cut)
	if len(trees) != 1 {
		t.Fatalf("trees: %d, want 1", len(trees))
	}
	root := trees[0].Root
	if root.Status != StatusRunning {
		t.Errorf("open root status = %q", root.Status)
	}
	// The open root extends to the last event beneath it (reduce
	// PhaseEnd at 7100).
	if root.EndUs != 7100 {
		t.Errorf("open root EndUs = %d, want 7100", root.EndUs)
	}
}

func TestCollectorFinalizesAndDropsLateEvents(t *testing.T) {
	c := NewCollector(nil, 2)
	bus := obs.NewBus(c)
	for _, e := range fixtureEvents() {
		bus.Emit(e)
	}
	trees := c.Finished()
	if len(trees) != 1 || trees[0].Root.Name != "pipe" {
		t.Fatalf("finished trees: %+v", trees)
	}
	if trees[0].Seq != 1 {
		t.Errorf("seq = %d, want 1", trees[0].Seq)
	}
	// A late kill for the closed job must be dropped, not grow a group.
	bus.Emit(obs.Event{Type: obs.AttemptKilled, Time: at(9000),
		Job: "job-a", Phase: "map", Task: "map-0001", Node: "n2"})
	if got := c.Finished(); len(got) != 1 {
		t.Fatalf("late event created a tree: %d", len(got))
	}
	c.mu.Lock()
	pending := len(c.groups)
	c.mu.Unlock()
	if pending != 0 {
		t.Errorf("late event leaked a pending group")
	}

	// A standalone job (no pipeline span) becomes its own root and
	// finalizes on JobFinished.
	bus.Emit(obs.Event{Type: obs.JobSubmitted, Time: at(10000), Job: "solo"})
	bus.Emit(obs.Event{Type: obs.JobFinished, Time: at(11000), Job: "solo"})
	trees = c.Finished()
	if len(trees) != 2 || trees[1].Root.Kind != KindJob || trees[1].Root.Name != "solo" {
		t.Fatalf("standalone job tree: %+v", trees)
	}
	if tr, ok := c.Find("solo"); !ok || tr.Root.Name != "solo" {
		t.Error("Find(solo) failed")
	}
	if tr, ok := c.Find("job-a"); !ok || tr.Root.Name != "pipe" {
		t.Error("Find by contained job name failed")
	}

	// The ring is bounded: a third root evicts the oldest.
	bus.Emit(obs.Event{Type: obs.JobSubmitted, Time: at(12000), Job: "solo-2"})
	bus.Emit(obs.Event{Type: obs.JobFinished, Time: at(13000), Job: "solo-2"})
	trees = c.Finished()
	if len(trees) != 2 || trees[0].Root.Name != "solo" || trees[1].Root.Name != "solo-2" {
		t.Fatalf("bounded ring: %+v", trees)
	}
}

func TestStoreRoundTripAndRetention(t *testing.T) {
	st := NewStore(obs.NewDirFS(t.TempDir()))
	for _, evs := range [][]obs.Event{fixtureEvents(), fixtureEvents(), fixtureEvents()} {
		for _, tr := range Assemble(evs) {
			if _, err := st.Save(tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	trees, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	// The store keeps every tree it saved, numbered in save order.
	if len(trees) != 3 || trees[0].Seq != 1 || trees[2].Seq != 3 {
		t.Fatalf("stored trees: %d, want seqs 1..3", len(trees))
	}
	// The round-tripped tree is structurally intact.
	got := trees[2]
	if got.Root.Name != "pipe" || got.Root.Job("job-a") == nil {
		t.Fatalf("round-tripped tree lost structure: %+v", got.Root)
	}
	if parts := got.Root.Job("job-a").Children[1].Parts; len(parts) != 3 || parts[2].Bytes != 5700 {
		t.Errorf("round-tripped Parts: %+v", parts)
	}
	if _, ok := st.Find("job-a"); !ok {
		t.Error("store Find by job name failed")
	}
	if _, ok := st.Find("3"); !ok {
		t.Error("store Find by seq failed")
	}
	if _, ok := st.Find("nope"); ok {
		t.Error("store Find matched a missing key")
	}
}

// failFS is an obs.FS whose every write fails.
type failFS struct{}

func (failFS) Create(string, []byte, string) error { return errors.New("disk full") }
func (failFS) List(string) []string                { return nil }
func (failFS) ReadAll(p string) ([]byte, error)    { return nil, fmt.Errorf("%s: no such file", p) }

func TestCollectorCountsSaveErrors(t *testing.T) {
	c := NewCollector(NewStore(failFS{}), 0)
	bus := obs.NewBus(c)
	for _, e := range fixtureEvents() {
		bus.Emit(e)
	}
	bus.Emit(obs.Event{Type: obs.JobSubmitted, Time: at(10000), Job: "solo"})
	bus.Emit(obs.Event{Type: obs.JobFinished, Time: at(11000), Job: "solo"})
	n, err := c.SaveErrors()
	if n != 2 || err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("SaveErrors() = %d, %v; want 2 failures naming the cause", n, err)
	}
	// A tree the store could not write is still served from memory.
	if _, ok := c.Find("solo"); !ok {
		t.Error("unsaved tree not findable")
	}
}

func TestChromeExportGolden(t *testing.T) {
	trees := Assemble(fixtureEvents())
	data, err := EncodeChrome(trees[0])
	if err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join("testdata", "chrome_golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden file missing (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if string(data) != string(want) {
		t.Errorf("chrome export drifted from golden file %s;\nrun UPDATE_GOLDEN=1 go test ./internal/obs/trace and review the diff", goldenPath)
	}
}

func TestChromeExportRoundTripsAgainstSchema(t *testing.T) {
	trees := Assemble(fixtureEvents())
	data, err := EncodeChrome(trees[0])
	if err != nil {
		t.Fatal(err)
	}
	ct, err := DecodeChrome(data)
	if err != nil {
		t.Fatalf("exported trace does not validate: %v", err)
	}
	var complete, meta int
	threads := map[int]bool{}
	for _, e := range ct.TraceEvents {
		switch e.Ph {
		case "X":
			complete++
			threads[e.Tid] = true
		case "M":
			meta++
		}
	}
	// 1 pipeline + 1 sub-span + 1 job + 2 phases + 7 attempts.
	if complete != 12 {
		t.Errorf("complete events: %d, want 12", complete)
	}
	// Every referenced thread carries a thread_name metadata record.
	named := map[int]bool{}
	for _, e := range ct.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			named[e.Tid] = true
		}
	}
	for tid := range threads {
		if !named[tid] {
			t.Errorf("thread %d has no thread_name metadata", tid)
		}
	}
	if meta < len(named)+1 {
		t.Errorf("metadata events: %d, want at least %d", meta, len(named)+1)
	}
	// Malformed traces are rejected.
	if _, err := DecodeChrome([]byte(`{"traceEvents":[{"name":"x","ph":"B","ts":0,"pid":1,"tid":0}]}`)); err == nil {
		t.Error("unsupported phase not rejected")
	}
	if _, err := DecodeChrome([]byte(`{"traceEvents":[{"name":"x","ph":"X","ts":0,"pid":1,"tid":0}]}`)); err == nil {
		t.Error("complete event without dur not rejected")
	}
}

func TestAnalyzeCriticalPathTilesJobWall(t *testing.T) {
	trees := Assemble(fixtureEvents())
	a := AnalyzeTree(trees[0], Options{})
	if len(a.Jobs) != 1 {
		t.Fatalf("analyzed jobs: %d", len(a.Jobs))
	}
	ja := a.Jobs[0]
	if ja.Job != "job-a" || ja.WallUs != 5200 {
		t.Fatalf("job analysis: %s wall=%d", ja.Job, ja.WallUs)
	}
	// The path is contiguous from job start to job end...
	cursor := int64(0) // job-relative: first step starts at job.StartUs
	jobSpan := trees[0].Root.Job("job-a")
	cursor = jobSpan.StartUs
	for i, st := range ja.Path {
		if st.StartUs != cursor {
			t.Fatalf("step %d starts at %d, want %d (gap/overlap)", i, st.StartUs, cursor)
		}
		if st.DurUs() < 0 {
			t.Fatalf("step %d has negative duration", i)
		}
		cursor = st.EndUs
	}
	if cursor != jobSpan.EndUs {
		t.Fatalf("path ends at %d, want %d", cursor, jobSpan.EndUs)
	}
	// ...so the per-phase attribution sums exactly to the wall, and the
	// percentages to 100.
	var sum int64
	var pct float64
	for _, pc := range ja.Phases {
		sum += pc.DurUs
		pct += pc.Pct
	}
	if sum != ja.WallUs {
		t.Errorf("phase attribution sums to %d, want %d", sum, ja.WallUs)
	}
	if pct < 99.9 || pct > 100.1 {
		t.Errorf("percentages sum to %.2f", pct)
	}
	// The shuffle only plans, between the map phase's end and the
	// reduce phase's start: one driver step.
	var planning []PathStep
	for _, st := range ja.Path {
		if st.StartUs == 5000 && st.EndUs == 6100 {
			planning = append(planning, st)
		}
	}
	if len(planning) != 1 || planning[0].Kind != "driver" {
		t.Errorf("shuffle planning steps: %+v", planning)
	}

	// Straggler pass: the killed original of map-0001 ran 2400µs against
	// a 500µs phase median — flagged, cross-referenced with the kill.
	if len(ja.Stragglers) == 0 {
		t.Fatal("no stragglers flagged")
	}
	s := ja.Stragglers[0]
	if s.Task != "map-0001" || s.Attempt != 0 {
		t.Fatalf("top straggler: %+v", s)
	}
	if !s.Speculated || !s.LostToBackup {
		t.Errorf("straggler speculation cross-ref: %+v", s)
	}

	// Skew pass: partition 2 holds 5700 of 6000 bytes.
	if ja.Skew == nil {
		t.Fatal("no skew report")
	}
	if ja.Skew.Partitions != 3 || ja.Skew.MaxPart.Part != 2 {
		t.Errorf("skew report: %+v", ja.Skew)
	}
	if ja.Skew.Imbalance < 2.8 || ja.Skew.Imbalance > 2.9 {
		t.Errorf("imbalance = %.2f, want 2.85", ja.Skew.Imbalance)
	}
	if len(ja.Skew.Hot) != 1 || ja.Skew.Hot[0].Part != 2 {
		t.Errorf("hot partitions: %+v", ja.Skew.Hot)
	}
}

// TestStragglerFloorIgnoresMicrosecondAttempts: reduce attempts of 14,
// 27 and 55 µs differ by ratio as much as a real straggler does, but
// by microseconds; only the 16.5 ms map attempt is reported.
func TestStragglerFloorIgnoresMicrosecondAttempts(t *testing.T) {
	ev := []obs.Event{{Type: obs.JobSubmitted, Job: "j", Time: at(0)}}
	attempt := func(phase, task string, start, dur int64) {
		ev = append(ev,
			obs.Event{Type: obs.AttemptStarted, Job: "j", Phase: phase, Task: task, Node: "n1", Time: at(start)},
			obs.Event{Type: obs.AttemptSucceeded, Job: "j", Phase: phase, Task: task, Node: "n1", Time: at(start + dur)})
	}
	ev = append(ev, obs.Event{Type: obs.PhaseStart, Job: "j", Phase: "map", Time: at(0)})
	attempt("map", "map-0000", 0, 5000)
	attempt("map", "map-0001", 0, 6000)
	attempt("map", "map-0002", 0, 16500)
	ev = append(ev,
		obs.Event{Type: obs.PhaseEnd, Job: "j", Phase: "map", Time: at(16500)},
		obs.Event{Type: obs.PhaseStart, Job: "j", Phase: "reduce", Time: at(16600)})
	attempt("reduce", "reduce-0000", 16600, 14)
	attempt("reduce", "reduce-0001", 16600, 27)
	attempt("reduce", "reduce-0002", 16600, 55)
	ev = append(ev,
		obs.Event{Type: obs.PhaseEnd, Job: "j", Phase: "reduce", Time: at(16700)},
		obs.Event{Type: obs.JobFinished, Job: "j", Time: at(16800), Dur: 16800 * time.Microsecond})
	trees := Assemble(ev)
	if len(trees) != 1 {
		t.Fatalf("trees: %d, want 1", len(trees))
	}
	a := AnalyzeTree(trees[0], Options{})
	if len(a.Jobs) != 1 {
		t.Fatalf("analyzed jobs: %d", len(a.Jobs))
	}
	got := a.Jobs[0].Stragglers
	if len(got) != 1 || got[0].Task != "map-0002" || got[0].DurUs != 16500 || got[0].MedianUs != 6000 {
		t.Fatalf("stragglers = %+v, want only map-0002 (16500µs against a 6000µs median)", got)
	}
}

func TestWriteReportMentionsEverySection(t *testing.T) {
	trees := Assemble(fixtureEvents())
	a := AnalyzeTree(trees[0], Options{})
	var sb strings.Builder
	WriteReport(&sb, trees[0], a)
	out := sb.String()
	for _, want := range []string{
		"job job-a", "critical path", "map", "shuffle skew",
		"stragglers", "map-0001/0", "lost to backup", "HOT p0002",
		"job-a — 3 map / 2 reduce tasks", "n1 |", "legend:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestHTTPHandlers(t *testing.T) {
	c := NewCollector(nil, 4)
	for _, e := range fixtureEvents() {
		c.Emit(e)
	}
	// TraceHandler serves the tree and the chrome form.
	th := TraceHandler("/trace/", c)
	body, code := serve(t, th, "/trace/pipe")
	if code != 200 || !strings.Contains(body, `"kind": "pipeline"`) {
		t.Errorf("trace endpoint: code=%d body=%.120s", code, body)
	}
	body, code = serve(t, th, "/trace/pipe?format=chrome")
	if code != 200 || !strings.Contains(body, `"traceEvents"`) {
		t.Errorf("chrome endpoint: code=%d body=%.120s", code, body)
	}
	if _, err := DecodeChrome([]byte(body)); err != nil {
		t.Errorf("served chrome trace invalid: %v", err)
	}
	if _, code = serve(t, th, "/trace/absent"); code != 404 {
		t.Errorf("missing trace: code=%d", code)
	}
	// AnalyzeHandler serves JSON and text, honouring factor overrides.
	ah := AnalyzeHandler("/analyze/", c, Options{})
	body, code = serve(t, ah, "/analyze/job-a")
	if code != 200 || !strings.Contains(body, `"stragglers"`) {
		t.Errorf("analyze endpoint: code=%d body=%.120s", code, body)
	}
	body, code = serve(t, ah, "/analyze/job-a?format=text&slow=100")
	if code != 200 || strings.Contains(body, "stragglers (>") {
		t.Errorf("analyze text with slow=100 still flags stragglers: %.200s", body)
	}
}

// attempt is one row of a timeline fixture, in milliseconds from the
// job's start.
type attempt struct {
	phase, task    string
	n              int
	node           string
	startMs, endMs int64
	status         string
}

// jobSpan builds a job span of the given wall holding the attempts
// under their phases.
func jobSpan(name string, wallMs int64, atts ...attempt) *Span {
	job := &Span{Kind: KindJob, Name: name, Status: StatusSucceeded, EndUs: wallMs * 1000}
	phases := map[string]*Span{}
	for _, a := range atts {
		p := phases[a.phase]
		if p == nil {
			p = &Span{Kind: KindPhase, Name: a.phase, Status: StatusSucceeded}
			phases[a.phase] = p
			job.Children = append(job.Children, p)
		}
		p.Children = append(p.Children, &Span{Kind: KindAttempt, Name: a.task, Attempt: a.n, Node: a.node,
			Status: a.status, StartUs: a.startMs * 1000, EndUs: a.endMs * 1000})
	}
	return job
}

func timeline(job *Span) string {
	var sb strings.Builder
	writeTimeline(&sb, job)
	return sb.String()
}

func TestTimeline(t *testing.T) {
	out := timeline(jobSpan("demo", 100,
		attempt{"map", "map-0000", 0, "node-1", 0, 60, StatusSucceeded},
		attempt{"map", "map-0001", 0, "node-2", 0, 30, StatusFailed},
		attempt{"map", "map-0001", 1, "node-1", 30, 90, StatusSucceeded},
		attempt{"reduce", "reduce-0000", 0, "node-2", 60, 100, StatusKilled},
	))
	for _, want := range []string{
		"job demo — 2 map / 1 reduce tasks",
		"node-1 |",
		"node-2 |",
		"legend:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	// Failed and killed attempts use their own fill characters.
	if !strings.Contains(out, "x") {
		t.Error("no failed-attempt marks in timeline")
	}
	if !strings.Contains(out, "~") {
		t.Error("no killed-attempt marks in timeline")
	}
	// Overlapping attempts on one node must stack onto separate lanes:
	// node-1 runs map-0000 (0-60) and map-0001/1 (30-90) concurrently.
	if n := strings.Count(out, "node-1 |"); n != 2 {
		t.Errorf("node-1 has %d lanes, want 2:\n%s", n, out)
	}
	if empty := timeline(jobSpan("none", 0)); !strings.Contains(empty, "no attempt records") {
		t.Errorf("empty job render: %q", empty)
	}
}

// TestTimelineFailedAndSpeculative pins down the exact lane layout of
// a retry-plus-speculation story: map-0001 fails on node-b, retries on
// node-a, is speculated on node-c, and the backup loses.
func TestTimelineFailedAndSpeculative(t *testing.T) {
	out := timeline(jobSpan("retry", 200,
		attempt{"map", "map-0000", 0, "node-a", 0, 40, StatusSucceeded},
		attempt{"map", "map-0001", 0, "node-b", 0, 50, StatusFailed},
		attempt{"map", "map-0001", 1, "node-a", 60, 200, StatusSucceeded},
		attempt{"map", "map-0001", 2, "node-c", 120, 180, StatusKilled},
	))
	lines := strings.Split(out, "\n")

	laneFor := func(node, marker string) string {
		t.Helper()
		for _, ln := range lines {
			if strings.HasPrefix(ln, node+" ") && strings.Contains(ln, marker) {
				return ln
			}
		}
		t.Fatalf("no %s lane containing %q:\n%s", node, marker, out)
		return ""
	}
	// The failed attempt renders with 'x' fill and its task/attempt label.
	failed := laneFor("node-b", "x")
	if !strings.Contains(failed, "map-0001/0") {
		t.Errorf("failed attempt lane missing label: %q", failed)
	}
	// The killed speculative backup renders with '~' fill on its node.
	killed := laneFor("node-c", "~")
	if !strings.Contains(killed, "map-0001/2") {
		t.Errorf("killed backup lane missing label: %q", killed)
	}
	// node-a's two attempts don't overlap, so they share a single lane.
	if n := strings.Count(out, "node-a |"); n != 1 {
		t.Errorf("node-a has %d lanes, want 1 (attempts are disjoint):\n%s", n, out)
	}
	if !strings.Contains(out, "wall 200ms") {
		t.Errorf("header missing wall time:\n%s", out)
	}
	if !strings.Contains(out, "legend: = succeeded   x failed   ~ speculative loser (killed)") {
		t.Errorf("legend missing:\n%s", out)
	}
}
