package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cluster"
	"repro/internal/dfs"
)

// joinReducer emits each key with its comma-joined value stream, so a
// job's output captures the full grouped kv stream the shuffle fed the
// reducer — grouping, key order and within-group value order included.
type joinReducer struct{ strReducerBase }

func (joinReducer) Reduce(_ *TaskContext, key string, values []string, emit strEmit) error {
	emit(key, strings.Join(values, ","))
	return nil
}

// lineCountingWordMapper is wordMapper plus one user-counter tick per
// input record, so the executors' counter semantics are compared too.
type lineCountingWordMapper struct{ wordMapper }

func (m lineCountingWordMapper) Map(ctx *TaskContext, key, value string, emit strEmit) error {
	ctx.Counter("user", "lines").Inc(1)
	return m.wordMapper.Map(ctx, key, value, emit)
}

// failOnReducer fails every attempt that meets the given key.
type failOnReducer struct {
	sumReducer
	key string
}

func (r failOnReducer) Reduce(ctx *TaskContext, key string, values []string, emit strEmit) error {
	if key == r.key {
		return fmt.Errorf("reducer refuses %q", key)
	}
	return r.sumReducer.Reduce(ctx, key, values, emit)
}

// storeExecutor runs every attempt through the worker-side entry point
// against the engine's own file system: an RPC worker minus the wire,
// so every run is a file.
type storeExecutor struct{ fs *dfs.FileSystem }

func (x storeExecutor) External() bool { return true }

func (x storeExecutor) RunTask(_ context.Context, spec TaskSpec) (TaskResult, error) {
	return ExecuteTask(x.fs, spec)
}

// An external executor's jobs must wire; the task code still comes
// from the Job the test hands to ExecuteTask.
const kindShuffleTest = "test-ext-shuffle"

func init() {
	registerKind(kindShuffleTest, build(strJob{Mapper: func() strMapper { return wordMapper{} }}))
}

// shuffleJob is one wordcount-shaped job over text. budget=0 keeps
// every in-process run in memory; small budgets force map-side spills
// to DFS; viaStore runs it on storeExecutor instead of in-process.
type shuffleJob struct {
	seed     int64
	text     string
	chunk    int64 // DFS chunk size, i.e. input bytes per map task; 0 = 120
	reducers int
	budget   int64
	compress bool
	combiner bool
	joined   bool   // joinReducer instead of sumReducer
	reverse  bool   // custom KeyCompare: descending keys
	mapOnly  bool   // no reducer at all
	failKey  string // reducer fails on this key
	viaStore bool
}

// shuffleOut is what a shuffleJob leaves behind: its output records
// (sorted), its part files byte for byte, the shuffle-relevant counter
// groups, and whatever the job forgot under _tmp/ and _shuffle/.
type shuffleOut struct {
	mapTasks  int
	kvs       []KV
	parts     map[string]string
	counters  map[string]map[string]int64
	leftovers []string
}

func (c shuffleJob) run() (shuffleOut, error) {
	var out shuffleOut
	cl, err := cluster.NewUniform(4, 2, 2)
	if err != nil {
		return out, err
	}
	if c.chunk == 0 {
		c.chunk = 120
	}
	fs, err := dfs.New(cl, dfs.Config{ChunkSize: c.chunk, Replication: 3, Seed: c.seed})
	if err != nil {
		return out, err
	}
	var opts Options
	if c.viaStore {
		opts.Executor = storeExecutor{fs}
	}
	e := NewEngine(cl, fs, opts)
	if err := fs.Create("in/f", []byte(c.text), ""); err != nil {
		return out, err
	}
	job := strJob{
		Name:            "ext-shuffle",
		Kind:            kindShuffleTest,
		InputPaths:      []string{"in/f"},
		OutputPath:      "out",
		Mapper:          func() strMapper { return lineCountingWordMapper{} },
		Reducer:         func() strReducer { return sumReducer{} },
		NumReducers:     c.reducers,
		MaxShuffleBytes: c.budget,
		CompressSpill:   c.compress,
	}
	switch {
	case c.mapOnly:
		job.Reducer = nil
	case c.failKey != "":
		job.Reducer = func() strReducer { return failOnReducer{key: c.failKey} }
	case c.joined:
		job.Reducer = func() strReducer { return joinReducer{} }
	}
	if c.combiner {
		job.Combiner = func() strReducer { return sumReducer{} }
	}
	if c.reverse {
		job.KeyCompare = func(a, b string) int { return -strings.Compare(a, b) }
	}
	res, runErr := e.Run(build(job))
	out.leftovers = append(fs.List("_tmp"), fs.List("_shuffle")...)
	out.parts = map[string]string{}
	for _, f := range fs.List("out") {
		data, err := fs.ReadAll(f)
		if err != nil {
			return out, err
		}
		out.parts[f] = string(data)
	}
	if runErr != nil {
		return out, runErr
	}
	out.mapTasks = res.MapTasks
	snap := res.Counters.Snapshot()
	out.counters = map[string]map[string]int64{
		CounterGroupTask: snap[CounterGroupTask], CounterGroupShuffle: snap[CounterGroupShuffle], "user": snap["user"],
	}
	out.kvs, err = readKVs(e, "out")
	sortKVs(out.kvs)
	return out, err
}

// sameAcrossExecutors runs the job in-process and on storeExecutor and
// reports any difference in part-file bytes, counters or cleanup,
// returning the in-process outcome. The two spill-file counters are
// compared only when wantFiles is set: below a budget that spills
// everything they count files the all-file executor writes by
// construction and the in-process one does not.
func sameAcrossExecutors(t *testing.T, c shuffleJob, wantFiles bool) (shuffleOut, bool) {
	t.Helper()
	c.viaStore = false
	local, lerr := c.run()
	c.viaStore = true
	store, serr := c.run()
	ok := true
	complain := func(format string, args ...any) {
		t.Logf("%+v: "+format, append([]any{c}, args...)...)
		ok = false
	}
	if (lerr == nil) != (serr == nil) || (c.failKey == "") != (lerr == nil) {
		complain("errors: in-process %v, store %v", lerr, serr)
	}
	for name, o := range map[string]shuffleOut{"in-process": local, "store": store} {
		if len(o.leftovers) != 0 {
			complain("%s left %v behind", name, o.leftovers)
		}
		if lerr != nil && len(o.parts) != 0 {
			complain("%s failed but kept output %v", name, o.parts)
		}
	}
	if !reflect.DeepEqual(local.parts, store.parts) {
		complain("part files differ:\n in-process %q\n store      %q", local.parts, store.parts)
	}
	if !wantFiles && lerr == nil {
		for _, o := range []shuffleOut{local, store} {
			delete(o.counters[CounterGroupShuffle], CounterShuffleSpillFiles)
			delete(o.counters[CounterGroupShuffle], CounterShuffleSpillBytes)
		}
	}
	if !reflect.DeepEqual(local.counters, store.counters) {
		complain("counters differ:\n in-process %v\n store      %v", local.counters, store.counters)
	}
	return local, ok
}

// TestPropertyExternalShuffleEqualsInMemory is the shuffle's core
// contract: for random inputs, reducer counts, budgets, custom key
// orders and combiner/compression settings, runs spilled to DFS produce
// record-for-record the output of runs held in memory — and at either
// budget the all-file executor produces byte-for-byte the part files
// and counters of the in-process one. With the combiner off the
// joined-values reducer makes the comparison cover the complete grouped
// kv stream, not just aggregates. Half the cases draw their words from a
// large vocabulary: with near-distinct keys a combiner frees nothing, so
// a combining task must still spill, again and again.
func TestPropertyExternalShuffleEqualsInMemory(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30}
	f := func(seed int64, reducersRaw, budgetRaw uint8, combiner, compress, reverse, distinct bool) bool {
		rng := rand.New(rand.NewSource(seed))
		text := randText(rng)
		if distinct {
			text = distinctText(rng)
		}
		inMem := shuffleJob{
			seed: seed, text: text, reducers: int(reducersRaw)%4 + 1,
			combiner: combiner, reverse: reverse,
			joined: !combiner, // full-stream comparison needs an uncombined stream
		}
		ext := inMem
		// 32..287 bytes: small enough that most tasks spill repeatedly.
		ext.budget, ext.compress = int64(budgetRaw)+32, compress

		want, ok := sameAcrossExecutors(t, inMem, false)
		got, extOK := sameAcrossExecutors(t, ext, false)
		if !ok || !extOK {
			return false
		}
		if len(got.kvs) != len(want.kvs) {
			t.Logf("seed=%d: %d records, want %d", seed, len(got.kvs), len(want.kvs))
			return false
		}
		for i := range got.kvs {
			if got.kvs[i] != want.kvs[i] {
				t.Logf("seed=%d budget=%d: record %d = %v, want %v", seed, ext.budget, i, got.kvs[i], want.kvs[i])
				return false
			}
		}
		// Whether a given task actually spilled depends on its split
		// size vs the budget; TestExternalShuffleSpillsAndCleansUp and
		// TestExternalShuffleCombinesInTheBuffer pin that spills do
		// engage. Here only equivalence matters.
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestExternalShuffleExecutorsAgree pins the cross-executor identity on
// the shapes the property only meets by chance: reducer + combiner +
// custom key order + several reducers at budget 0, at a budget that
// spills every record (so the spill-file counters must agree too) and
// compressed; a map-only job; and a failing job, which must leave
// neither output nor debris on either executor.
func TestExternalShuffleExecutorsAgree(t *testing.T) {
	base := shuffleJob{
		seed: 11, text: strings.Repeat("delta alpha gamma beta alpha x yy\nzzz beta\n", 40),
		reducers: 3, combiner: true, reverse: true,
	}
	tiny, compressed, mapOnly, failing, fewKeys, distinct := base, base, base, base, base, base
	tiny.budget = 1
	compressed.budget, compressed.compress = 1, true
	mapOnly.mapOnly, mapOnly.combiner = true, false
	failing.failKey, failing.budget = "gamma", 64
	// Every map task emits 120 bytes under a 64-byte budget, and four
	// keys combine to 23: the budget binds in every task (so both
	// executors write files) and combining avoids every spill.
	fewKeys.text, fewKeys.budget = strings.Repeat(fewKeysLine, 30), 64
	distinct.text, distinct.budget = distinctText(rand.New(rand.NewSource(5))), 32
	for _, tc := range []struct {
		name      string
		job       shuffleJob
		wantFiles bool
	}{
		{"budget 0", base, false},
		{"tiny budget", tiny, true},
		{"compressed", compressed, true},
		{"map-only", mapOnly, true},
		{"failing reducer", failing, false},
		{"combiner, few keys", fewKeys, true},
		{"combiner, near-distinct keys", distinct, true},
	} {
		if _, ok := sameAcrossExecutors(t, tc.job, tc.wantFiles); !ok {
			t.Errorf("%s: executors disagree", tc.name)
		}
	}
}

// fewKeysLine is 40 bytes of text that map to 40 bytes of (word, "1")
// records, so a 120-byte chunk is exactly three lines and 120 bytes of
// map output.
const fewKeysLine = "alpha beta gamma delta alpha beta gamma\n"

// distinctText is text whose words hardly ever repeat, in 40-byte lines
// of five words: like fewKeysLine, 120 bytes of map output per chunk.
func distinctText(rng *rand.Rand) string {
	var sb strings.Builder
	for line := 0; line < 3*(10+rng.Intn(10)); line++ {
		for w := 0; w < 5; w++ {
			fmt.Fprintf(&sb, "w%06d%c", rng.Intn(1000000), " \n"[w/4])
		}
	}
	return sb.String()
}

// TestExternalShuffleCombinesInTheBuffer pins the compaction rule from
// both sides. With few keys the combiner keeps the buffer under half
// the budget: nothing spills mid-task, and a task whose budget bound
// hands over at most one file per partition. With near-distinct keys
// combining frees nothing and the task spills run after run.
func TestExternalShuffleCombinesInTheBuffer(t *testing.T) {
	files := func(o shuffleOut) int64 { return o.counters[CounterGroupShuffle][CounterShuffleSpillFiles] }
	few := shuffleJob{seed: 3, text: strings.Repeat(fewKeysLine, 30), reducers: 3, combiner: true, budget: 64}
	out, ok := sameAcrossExecutors(t, few, true)
	if !ok {
		t.Fatal("few keys: executors disagree")
	}
	if n, most := files(out), int64(few.reducers*out.mapTasks); n == 0 || n > most {
		t.Fatalf("few keys: %d run files from %d map tasks x %d partitions, want 1..%d", n, out.mapTasks, few.reducers, most)
	}
	task := out.counters[CounterGroupTask]
	if in, emitted := task[CounterCombineInput], task[CounterMapOutputRecords]; in <= emitted {
		t.Fatalf("few keys: combiner read %d records of %d emitted: it never ran over its own output", in, emitted)
	}
	if got := out.counters[CounterGroupShuffle][CounterShuffleSpilledRecords]; got > int64(4*out.mapTasks) {
		t.Fatalf("few keys: %d records reached the shuffle, want at most 4 per map task", got)
	}

	distinct := few
	distinct.text, distinct.budget = distinctText(rand.New(rand.NewSource(9))), 32
	out, ok = sameAcrossExecutors(t, distinct, true)
	if !ok {
		t.Fatal("near-distinct keys: executors disagree")
	}
	if n, once := files(out), int64(distinct.reducers*out.mapTasks); n <= once {
		t.Fatalf("near-distinct keys: %d run files, want more than one per map task and partition (%d)", n, once)
	}
}

// TestExternalShuffleCombinesWithoutABudget runs one map task whose
// output is several times the internal combine size, over keys that
// mostly differ (so the buffer has to grow) with a combiner and no
// budget: the buffer is combined on the way — the combiner reads more
// records than the mapper emitted — nothing is spilled, and the sums
// equal the run without a combiner.
func TestExternalShuffleCombinesWithoutABudget(t *testing.T) {
	var sb strings.Builder
	for i := 0; sb.Len() < 3*combineBufferBytes; i++ {
		fmt.Fprintf(&sb, "w%06d w%06d\n", i%150000, i%7)
	}
	plain := shuffleJob{seed: 1, text: sb.String(), chunk: 8 * combineBufferBytes, reducers: 2}
	combined := plain
	combined.combiner = true
	want, err := plain.run()
	if err != nil {
		t.Fatal(err)
	}
	got, err := combined.run()
	if err != nil {
		t.Fatal(err)
	}
	if got.mapTasks != 1 {
		t.Fatalf("%d map tasks, want 1", got.mapTasks)
	}
	if !reflect.DeepEqual(got.kvs, want.kvs) {
		t.Fatalf("combined output (%d records) differs from the uncombined (%d records)", len(got.kvs), len(want.kvs))
	}
	task := got.counters[CounterGroupTask]
	if in, emitted := task[CounterCombineInput], task[CounterMapOutputRecords]; in <= emitted {
		t.Fatalf("combiner read %d records of %d emitted: the buffer was never combined before the end", in, emitted)
	}
	if n := got.counters[CounterGroupShuffle][CounterShuffleSpillFiles]; n != 0 {
		t.Fatalf("%d run files without a budget", n)
	}
}

// failingStore refuses to create run files.
type failingStore struct{ dfs.Store }

func (s failingStore) Create(path string, data []byte, node string) error {
	if strings.HasPrefix(path, "_shuffle/") {
		return errors.New("disk full")
	}
	return s.Store.Create(path, data, node)
}

// TestSpillRunFailureStopsTheMapTask: a run file that cannot be written
// fails the attempt at the record that filled the buffer — the mapper
// is not fed the rest of the split first — and the error names the run.
func TestSpillRunFailureStopsTheMapTask(t *testing.T) {
	e := newTestEngine(t, 1<<20)
	const lines = 500
	writeInput(t, e, "in/f", strings.Repeat("alpha beta gamma delta\n", lines))
	splits, err := splitsFor(e.fs, []string{"in/f"})
	if err != nil || len(splits) != 1 {
		t.Fatalf("splits = %v, %v", splits, err)
	}
	seen := 0
	job := build(strJob{
		Name: "spill-fails", MaxShuffleBytes: 64,
		Mapper: func() strMapper {
			return strMapFunc(func(_ *TaskContext, _, line string, emit strEmit) error {
				seen++
				return wordMapper{}.Map(nil, "", line, emit)
			})
		},
		Reducer: func() strReducer { return sumReducer{} },
	})
	_, err = ExecuteTask(failingStore{e.fs}, TaskSpec{
		Job: job, Phase: "map", TaskID: "map-0000", NumReducers: 2, Split: splits[0],
	})
	if err == nil || !strings.Contains(err.Error(), "_shuffle/spill-fails/map-0000-a0000-spill-0000-p") {
		t.Fatalf("error = %v, want the failed run's path", err)
	}
	if seen == 0 || seen > lines/10 {
		t.Fatalf("mapper saw %d of %d records after a spill failed on the first few", seen, lines)
	}
}

// TestExternalShuffleSpillsAndCleansUp pins the observable spill
// lifecycle: counters prove runs went to DFS, the output is correct,
// and the job's spill directory is gone when Run returns.
func TestExternalShuffleSpillsAndCleansUp(t *testing.T) {
	c, _ := cluster.NewUniform(4, 2, 2)
	fs, _ := dfs.New(c, dfs.Config{ChunkSize: 256, Replication: 3, Seed: 7})
	e := NewEngine(c, fs, Options{})
	writeInput(t, e, "in/f", strings.Repeat("alpha beta gamma delta\n", 200))
	job := build(strJob{
		Name:            "spilly",
		InputPaths:      []string{"in/f"},
		OutputPath:      "out",
		Mapper:          func() strMapper { return wordMapper{} },
		Reducer:         func() strReducer { return sumReducer{} },
		Combiner:        func() strReducer { return sumReducer{} },
		NumReducers:     3,
		MaxShuffleBytes: 64,
		CompressSpill:   true,
	})
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	files := res.Counters.Value(CounterGroupShuffle, CounterShuffleSpillFiles)
	bytes := res.Counters.Value(CounterGroupShuffle, CounterShuffleSpillBytes)
	if files == 0 || bytes == 0 {
		t.Fatalf("no spills recorded: files=%d bytes=%d", files, bytes)
	}
	if errs := res.Counters.Value(CounterGroupShuffle, CounterShuffleSpillCleanupErrors); errs != 0 {
		t.Fatalf("spill cleanup reported %d errors", errs)
	}
	if left := fs.List(spillDir(job)); len(left) != 0 {
		t.Fatalf("spill dir not cleaned up: %v", left)
	}
	kvs, err := readKVs(e, "out")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, kv := range kvs {
		got[kv.Key] = kv.Value
	}
	for _, w := range []string{"alpha", "beta", "gamma", "delta"} {
		if got[w] != "200" {
			t.Fatalf("word %q = %q, want 200 (output: %v)", w, got[w], got)
		}
	}
}

// TestExternalShuffleUnderSpeculation drives the spill path while a
// straggler node forces speculative backup attempts, so concurrent
// attempts of one task write (and clean up) attempt-unique spill runs
// at once — the scenario the -race CI step exists for.
func TestExternalShuffleUnderSpeculation(t *testing.T) {
	c, _ := cluster.NewUniform(4, 2, 1)
	slowNode := c.Nodes()[0].ID
	fs, _ := dfs.New(c, dfs.Config{ChunkSize: 64, Replication: 3, Seed: 1})
	e := NewEngine(c, fs, Options{
		SpeculativeSlack: 10 * time.Millisecond,
		NodeDelay: func(node string) time.Duration {
			if node == slowNode {
				return 150 * time.Millisecond
			}
			return 2 * time.Millisecond
		},
	})
	writeInput(t, e, "in/f", strings.Repeat("hello world again\n", 60))
	res, err := e.Run(build(strJob{
		Name:            "speculative-spill",
		InputPaths:      []string{"in/f"},
		OutputPath:      "out",
		Mapper:          func() strMapper { return wordMapper{} },
		Reducer:         func() strReducer { return sumReducer{} },
		NumReducers:     2,
		MaxShuffleBytes: 48,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if spills := res.Counters.Value(CounterGroupShuffle, CounterShuffleSpillFiles); spills == 0 {
		t.Fatal("speculative run never spilled; budget too high for the fixture")
	}
	kvs, err := readKVs(e, "out")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, kv := range kvs {
		got[kv.Key] = kv.Value
	}
	for _, w := range []string{"hello", "world", "again"} {
		if got[w] != "60" {
			t.Fatalf("word %q = %q, want 60", w, got[w])
		}
	}
	// The straggler's own attempt wakes from its node delay after the
	// job has swept its directories; it must not write there any more.
	time.Sleep(200 * time.Millisecond)
	if left := append(fs.List("_shuffle"), fs.List("_tmp")...); len(left) != 0 {
		t.Fatalf("losing attempt wrote after the job ended: %v", left)
	}
}

// TestMapOnlyJobIgnoresShuffleBudget asserts the budget knob is inert
// for map-only jobs: output goes straight to part files, no spill dir.
func TestMapOnlyJobIgnoresShuffleBudget(t *testing.T) {
	e := newTestEngine(t, 64)
	writeInput(t, e, "in/f", strings.Repeat("a b c\n", 50))
	job := build(strJob{
		Name:            "maponly-budget",
		InputPaths:      []string{"in/f"},
		OutputPath:      "out",
		Mapper:          func() strMapper { return wordMapper{} },
		MaxShuffleBytes: 16,
	})
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if spills := res.Counters.Value(CounterGroupShuffle, CounterShuffleSpillFiles); spills != 0 {
		t.Fatalf("map-only job wrote %d spill files", spills)
	}
	kvs, err := readKVs(e, "out")
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 150 {
		t.Fatalf("map-only output %d records, want 150", len(kvs))
	}
}

// TestSpillRunTruncationIsAnError reads a truncated copy of a real
// spill run through the reduce-side cursor: the stream must fail
// loudly, never end in a silently short group stream.
func TestSpillRunTruncationIsAnError(t *testing.T) {
	c, _ := cluster.NewUniform(4, 2, 2)
	fs, _ := dfs.New(c, dfs.Config{ChunkSize: 1 << 20, Replication: 3, Seed: 3})
	e := NewEngine(c, fs, Options{})
	job := &Job{Name: "trunc", MaxShuffleBytes: 1}
	sp := newMapSpiller(e.fs, &TaskContext{}, TaskSpec{Job: job, TaskID: "m0", NumReducers: 1}, false)
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("key-%02d", i)
		sp.add(append(append(sp.tail(), key...), "value-payload"...), len(key))
	}
	out, err := sp.finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(out[0]) == 0 || out[0][0].Path == "" {
		t.Fatal("fixture produced no file runs")
	}
	run := out[0][0]
	data, err := fs.ReadAll(run.Path)
	if err != nil {
		t.Fatal(err)
	}
	trunc := run.Path + ".trunc"
	if err := fs.Create(trunc, data[:len(data)-3], ""); err != nil {
		t.Fatal(err)
	}
	pull, err := Run{RunDesc: RunDesc{Path: trunc}}.open(fs)
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, ok, err := pull.next()
		if err != nil {
			return // truncation surfaced as an explicit error
		}
		if !ok {
			t.Fatal("truncated spill run read to a clean EOF")
		}
	}
}
