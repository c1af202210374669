package mapreduce

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/obs"
)

// newObservedEngine is newTestEngine plus an attached event recorder
// and a history store over the engine's own DFS.
func newObservedEngine(t *testing.T, chunkSize int64, opts Options) (*Engine, *obs.Recorder, *obs.History) {
	t.Helper()
	c, err := cluster.NewUniform(6, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := dfs.New(c, dfs.Config{ChunkSize: chunkSize, Replication: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := &obs.Recorder{}
	opts.Obs = obs.NewBus(rec)
	hist := obs.NewHistory(fs)
	opts.History = hist
	return NewEngine(c, fs, opts), rec, hist
}

func TestEngineEventLifecycle(t *testing.T) {
	e, rec, hist := newObservedEngine(t, 32, Options{})
	writeInput(t, e, "in/text", strings.Repeat("the quick brown fox\n", 20))
	res, err := e.Run(build(strJob{
		Name:        "lifecycle",
		InputPaths:  []string{"in"},
		OutputPath:  "out",
		Parent:      "pipeline-x",
		Mapper:      func() strMapper { return wordMapper{} },
		Reducer:     func() strReducer { return sumReducer{} },
		NumReducers: 2,
	}))
	if err != nil {
		t.Fatal(err)
	}

	if subs := rec.ByType(obs.JobSubmitted); len(subs) != 1 {
		t.Fatalf("JobSubmitted events: %d, want 1", len(subs))
	} else if subs[0].Parent != "pipeline-x" {
		t.Errorf("JobSubmitted parent = %q", subs[0].Parent)
	}
	fins := rec.ByType(obs.JobFinished)
	if len(fins) != 1 || fins[0].Err != "" {
		t.Fatalf("JobFinished events: %+v", fins)
	}
	if fins[0].Dur <= 0 {
		t.Error("JobFinished carries no duration")
	}

	// Each phase opens and closes exactly once, in order.
	wantPhases := []string{"map", "shuffle", "reduce"}
	starts, ends := rec.ByType(obs.PhaseStart), rec.ByType(obs.PhaseEnd)
	if len(starts) != 3 || len(ends) != 3 {
		t.Fatalf("phase events: %d starts, %d ends", len(starts), len(ends))
	}
	for i, ph := range wantPhases {
		if starts[i].Phase != ph || ends[i].Phase != ph {
			t.Errorf("phase %d = start %q / end %q, want %q", i, starts[i].Phase, ends[i].Phase, ph)
		}
	}
	// The shuffle PhaseEnd carries the shuffled byte volume.
	if got := ends[1].Value; got != res.Counters.Value(CounterGroupShuffle, CounterShuffleBytes) {
		t.Errorf("shuffle PhaseEnd value = %d, want shuffle_bytes counter", got)
	}
	// ... and the per-partition merge summary the trace assembler and
	// skew analysis consume: one PartStat per reduce partition, whose
	// byte/run totals match the shuffle counters.
	parts := ends[1].Parts
	if len(parts) != res.ReduceTasks {
		t.Fatalf("shuffle PhaseEnd parts: %d, want %d", len(parts), res.ReduceTasks)
	}
	var partBytes, partRuns, partRecords int64
	for i, p := range parts {
		if p.Part != i {
			t.Errorf("parts[%d].Part = %d", i, p.Part)
		}
		partBytes += p.Bytes
		partRuns += p.Runs
		partRecords += p.Records
	}
	if partBytes != res.Counters.Value(CounterGroupShuffle, CounterShuffleBytes) {
		t.Errorf("sum of partition bytes = %d, want shuffle_bytes counter", partBytes)
	}
	if partRuns != res.Counters.Value(CounterGroupShuffle, CounterShuffleRunsMerged) {
		t.Errorf("sum of partition runs = %d, want shuffle_runs_merged counter", partRuns)
	}
	if partRecords <= 0 {
		t.Error("partition records not recorded")
	}

	tasks := res.MapTasks + res.ReduceTasks
	if got := len(rec.ByType(obs.AttemptSucceeded)); got != tasks {
		t.Errorf("AttemptSucceeded events: %d, want %d", got, tasks)
	}
	if got := len(rec.ByType(obs.TaskScheduled)); got != tasks {
		t.Errorf("TaskScheduled events: %d, want %d (no retries)", got, tasks)
	}
	if got := len(rec.ByType(obs.AttemptStarted)); got != tasks {
		t.Errorf("AttemptStarted events: %d, want %d", got, tasks)
	}

	// The result carries one attempt record per task, all succeeded.
	if len(res.Attempts) != tasks {
		t.Fatalf("res.Attempts: %d, want %d", len(res.Attempts), tasks)
	}
	for _, a := range res.Attempts {
		if a.Status != "succeeded" || a.Node == "" || a.EndMs < a.StartMs {
			t.Errorf("bad attempt record: %+v", a)
		}
	}

	// Satellite: reduce tasks render locality as "n/a" in reports.
	rep := res.Report()
	for _, tr := range rep.Tasks {
		if strings.HasPrefix(tr.ID, "reduce-") && tr.Locality != "n/a" {
			t.Errorf("reduce task locality = %q, want n/a", tr.Locality)
		}
		if strings.HasPrefix(tr.ID, "map-") && tr.Locality == "n/a" {
			t.Errorf("map task %s lost its locality class", tr.ID)
		}
		if tr.StartOffset < 0 {
			t.Errorf("task %s has negative StartOffset", tr.ID)
		}
	}

	// Satellite: the job's DFS I/O shows up in the counters.
	for _, name := range []string{CounterDFSBytesRead, CounterDFSBytesWritten, CounterDFSChunksRead} {
		if v := res.Counters.Value(CounterGroupDFS, name); v <= 0 {
			t.Errorf("counter dfs.%s = %d, want > 0", name, v)
		}
	}

	// The engine persisted a history record with the attempts.
	recs, err := hist.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Job != "lifecycle" || len(recs[0].Attempts) != tasks {
		t.Fatalf("history records: %+v", recs)
	}
}

func TestEngineEmitsNothingWithoutSinks(t *testing.T) {
	// Options zero value: nil bus, nil history. The run must not
	// allocate event machinery or fail — the pre-observability path.
	e := newTestEngine(t, 64)
	writeInput(t, e, "in/f", "a b\n")
	res, err := e.Run(build(strJob{
		Name:       "quiet",
		InputPaths: []string{"in/f"},
		OutputPath: "out",
		Mapper:     func() strMapper { return wordMapper{} },
	}))
	if err != nil {
		t.Fatal(err)
	}
	// Attempt records are still collected (they feed Result.Attempts).
	if len(res.Attempts) != res.MapTasks {
		t.Errorf("attempts: %d, want %d", len(res.Attempts), res.MapTasks)
	}
}

func TestRetryPopulatesFailureEventsAndReport(t *testing.T) {
	boom := errors.New("injected failure")
	e, rec, _ := newObservedEngine(t, 1<<20, Options{
		FailureHook: func(taskID string, attempt int, node string) error {
			if taskID == "map-0000" && attempt == 0 {
				return boom
			}
			return nil
		},
	})
	writeInput(t, e, "in/f", "a b c\n")
	res, err := e.Run(build(strJob{
		Name:       "retry",
		InputPaths: []string{"in/f"},
		OutputPath: "out",
		Mapper:     func() strMapper { return wordMapper{} },
	}))
	if err != nil {
		t.Fatal(err)
	}

	fails := rec.ByType(obs.AttemptFailed)
	if len(fails) != 1 {
		t.Fatalf("AttemptFailed events: %d, want 1", len(fails))
	}
	if fails[0].Task != "map-0000" || fails[0].Attempt != 0 || !strings.Contains(fails[0].Err, "injected failure") {
		t.Errorf("failure event: %+v", fails[0])
	}
	if got := len(rec.ByType(obs.TaskScheduled)); got != 2 {
		t.Errorf("TaskScheduled events: %d, want 2 (original + retry)", got)
	}

	// Satellite: the winning report records the failed attempt.
	tr := res.Tasks[0]
	if tr.FailedAttempts != 1 || tr.Attempts != 2 {
		t.Errorf("report = attempts %d / failed %d, want 2 / 1", tr.Attempts, tr.FailedAttempts)
	}
	// Both attempts appear in the attempt log, failure first.
	if len(res.Attempts) != 2 {
		t.Fatalf("attempt records: %+v", res.Attempts)
	}
	var statuses []string
	for _, a := range res.Attempts {
		statuses = append(statuses, a.Status)
	}
	if fmt.Sprint(statuses) != "[failed succeeded]" {
		t.Errorf("attempt statuses = %v", statuses)
	}
	if res.Attempts[0].Error == "" {
		t.Error("failed attempt record has no error text")
	}
}

func TestSpeculativeKillEventsFireOncePerLoser(t *testing.T) {
	// One slow node forces backup attempts; every losing attempt must
	// produce exactly one AttemptKilled event, matching the
	// speculative_wasted counter.
	c, _ := cluster.NewUniform(3, 1, 1)
	slowNode := c.Nodes()[0].ID
	fs, _ := dfs.New(c, dfs.Config{ChunkSize: 1 << 20, Replication: 3, Seed: 1})
	rec := &obs.Recorder{}
	e := NewEngine(c, fs, Options{
		SpeculativeSlack: 10 * time.Millisecond,
		NodeDelay: func(node string) time.Duration {
			if node == slowNode {
				return 120 * time.Millisecond
			}
			return 0
		},
		Obs: obs.NewBus(rec),
	})
	writeInput(t, e, "in/f", "x\n")
	res, err := e.Run(build(strJob{
		Name:       "spec-kill",
		InputPaths: []string{"in/f"},
		OutputPath: "out",
		Mapper:     func() strMapper { return wordMapper{} },
	}))
	if err != nil {
		t.Fatal(err)
	}

	wasted := res.Counters.Value(CounterGroupScheduler, CounterSpeculativeWasted)
	kills := rec.ByType(obs.AttemptKilled)
	if int64(len(kills)) != wasted {
		t.Fatalf("AttemptKilled events: %d, speculative_wasted counter: %d", len(kills), wasted)
	}
	// No duplicate kill for the same attempt.
	seen := make(map[string]bool)
	for _, k := range kills {
		key := fmt.Sprintf("%s/%d/%s", k.Task, k.Attempt, k.Node)
		if seen[key] {
			t.Errorf("attempt %s killed twice", key)
		}
		seen[key] = true
	}
	// Killed attempts also land in the attempt log with status killed.
	var killedRecs int
	for _, a := range res.Attempts {
		if a.Status == "killed" {
			killedRecs++
		}
	}
	if int64(killedRecs) != wasted {
		t.Errorf("killed attempt records: %d, want %d", killedRecs, wasted)
	}
}

func TestCountersConcurrentAccess(t *testing.T) {
	// Hammer one Counters registry from many goroutines: per-record
	// increments, registry lookups, and snapshot reads all race here
	// unless Counter is genuinely atomic. Run with -race.
	cs := NewCounters()
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := cs.Get("task", "records")
			for i := 0; i < perG; i++ {
				c.Inc(1)
				cs.Get("task", fmt.Sprintf("dyn-%d", g)).Inc(1)
				if i%100 == 0 {
					cs.Snapshot()
					cs.Value("task", "records")
				}
			}
		}(g)
	}
	wg.Wait()
	if got := cs.Value("task", "records"); got != goroutines*perG {
		t.Errorf("records = %d, want %d", got, goroutines*perG)
	}
	snap := cs.Snapshot()
	for g := 0; g < goroutines; g++ {
		if snap["task"][fmt.Sprintf("dyn-%d", g)] != perG {
			t.Errorf("dyn-%d = %d, want %d", g, snap["task"][fmt.Sprintf("dyn-%d", g)], perG)
		}
	}
}

func TestFailingJobEmitsJobFinishedWithError(t *testing.T) {
	e, rec, hist := newObservedEngine(t, 1<<20, Options{
		FailureHook: func(taskID string, attempt int, node string) error {
			return errors.New("always down")
		},
	})
	writeInput(t, e, "in/f", "a\n")
	_, err := e.Run(build(strJob{
		Name:        "doomed",
		InputPaths:  []string{"in/f"},
		OutputPath:  "out",
		MaxAttempts: 2,
		Mapper:      func() strMapper { return wordMapper{} },
	}))
	if err == nil {
		t.Fatal("job unexpectedly succeeded")
	}
	fins := rec.ByType(obs.JobFinished)
	if len(fins) != 1 || fins[0].Err == "" {
		t.Fatalf("JobFinished on failure: %+v", fins)
	}
	// Failed jobs are not written to history.
	if recs, _ := hist.List(); len(recs) != 0 {
		t.Errorf("failed job saved to history: %+v", recs)
	}
}
