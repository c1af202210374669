package mapreduce

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/recordio"
)

// typedSumJob is the typed wordcount analogue used across these
// tests: text lines in, (word, count) out with int64 values moving as
// binary encodings end to end.
func typedSumJob(name, in, out string, reducers int, combine bool) *Job {
	tj := &TypedJob[string, string, string, int64, string, int64]{
		Name:       name,
		InputPaths: []string{in},
		OutputPath: out,
		Mapper: func() TypedMapper[string, string, string, int64] {
			return TypedMapFunc[string, string, string, int64](
				func(_ *TaskContext, _ string, line string, emit TypedEmit[string, int64]) error {
					for _, w := range strings.Fields(line) {
						emit(w, 1)
					}
					return nil
				})
		},
		Reducer: func() TypedReducer[string, int64, string, int64] {
			return TypedReduceFunc[string, int64, string, int64](
				func(_ *TaskContext, key string, values []int64, emit TypedEmit[string, int64]) error {
					var sum int64
					for _, v := range values {
						sum += v
					}
					emit(key, sum)
					return nil
				})
		},
		InputKey:    recordio.RawString{},
		InputValue:  recordio.RawString{},
		MapKey:      recordio.RawString{},
		MapValue:    recordio.Int64{},
		OutputKey:   recordio.RawString{},
		OutputValue: recordio.Int64{},
		NumReducers: reducers,
	}
	if combine {
		tj.Combiner = func() TypedReducer[string, int64, string, int64] {
			return TypedReduceFunc[string, int64, string, int64](
				func(_ *TaskContext, key string, values []int64, emit TypedEmit[string, int64]) error {
					var sum int64
					for _, v := range values {
						sum += v
					}
					emit(key, sum)
					return nil
				})
		}
	}
	return tj.Build()
}

// readTypedCounts decodes a typed sum job's binary output.
func readTypedCounts(t *testing.T, e *Engine, dir string) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	err := ReadOutput(e, dir, recordio.RawString{}, recordio.Int64{}, func(k string, n int64) error {
		out[k] += n
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReadOutputRejectsBadBytes plants bytes that are not a job's
// output in an output directory. Each must make ReadOutput fail with an
// error naming the file, without a panic and without handing fn
// anything from it.
func TestReadOutputRejectsBadBytes(t *testing.T) {
	record := func(value string) []byte {
		w := recordio.NewWriter()
		w.Add("k", value)
		return w.Bytes()
	}
	seven := string(recordio.Int64{}.Append(nil, 7))
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"text lines", []byte("k\t7\n")},
		{"truncated record file", record(seven)[:len(record(seven))-1]},
		{"value the codec rejects", record("not eight bytes")},
	} {
		e := newTestEngine(t, 64)
		writeInput(t, e, "out/part-r-00000", string(tc.data))
		seen := 0
		err := ReadOutput(e, "out", recordio.RawString{}, recordio.Int64{}, func(string, int64) error {
			seen++
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "out/part-r-00000") {
			t.Errorf("%s: err = %v, want an error naming out/part-r-00000", tc.name, err)
		}
		if seen != 0 {
			t.Errorf("%s: fn saw %d records of a bad file", tc.name, seen)
		}
	}
}

// TestTypedJobEndToEnd runs a typed job over text input and checks
// the binary output against the sequential reference.
func TestTypedJobEndToEnd(t *testing.T) {
	e := newTestEngine(t, 64)
	text := strings.Repeat("alpha beta beta\ngamma alpha\n", 40)
	writeInput(t, e, "in/f", text)
	res, err := e.Run(typedSumJob("typed-wc", "in/f", "out", 3, true))
	if err != nil {
		t.Fatal(err)
	}
	got := readTypedCounts(t, e, "out")
	if got["alpha"] != 80 || got["beta"] != 80 || got["gamma"] != 40 {
		t.Fatalf("wrong counts: %v", got)
	}
	// The part files really are binary record files.
	data, err := e.FS().ReadAll(res.OutputFiles[0])
	if err != nil {
		t.Fatal(err)
	}
	if !recordio.IsRecordData(data) {
		t.Fatal("typed job wrote a non-binary part file")
	}
	// The combiner must have cut shuffle volume.
	if in, out := res.Counters.Value(CounterGroupTask, CounterCombineInput),
		res.Counters.Value(CounterGroupTask, CounterCombineOutput); out >= in {
		t.Fatalf("combiner did not reduce records: in=%d out=%d", in, out)
	}
}

// TestTypedJobChainsOverRecordFiles feeds a typed job's binary
// output into a second typed job with a tiny chunk size, so the
// second job's map splits land mid-file and exercise the sync-block
// split reader inside the engine.
func TestTypedJobChainsOverRecordFiles(t *testing.T) {
	c, err := cluster.NewUniform(4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 256-byte chunks: the first job's binary part files will span
	// many chunks each.
	fs, err := dfs.New(c, dfs.Config{ChunkSize: 256, Replication: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(c, fs, Options{})
	rng := rand.New(rand.NewSource(3))
	var sb strings.Builder
	want := map[string]int64{}
	for i := 0; i < 400; i++ {
		w := fmt.Sprintf("word-%03d", rng.Intn(50))
		sb.WriteString(w)
		want[w]++
		if i%7 == 6 {
			sb.WriteByte('\n')
		} else {
			sb.WriteByte(' ')
		}
	}
	if err := fs.Create("in/f", []byte(sb.String()), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(typedSumJob("stage-1", "in/f", "s1", 2, false)); err != nil {
		t.Fatal(err)
	}
	// Stage 2 re-aggregates stage 1's binary records: input keys are
	// the stored words, values the encoded partial counts.
	tj := &TypedJob[string, int64, string, int64, string, int64]{
		Name:       "stage-2",
		InputPaths: []string{"s1"},
		OutputPath: "s2",
		Mapper: func() TypedMapper[string, int64, string, int64] {
			return TypedMapFunc[string, int64, string, int64](
				func(_ *TaskContext, word string, n int64, emit TypedEmit[string, int64]) error {
					emit(word, n)
					return nil
				})
		},
		Reducer: func() TypedReducer[string, int64, string, int64] {
			return TypedReduceFunc[string, int64, string, int64](
				func(_ *TaskContext, key string, values []int64, emit TypedEmit[string, int64]) error {
					var sum int64
					for _, v := range values {
						sum += v
					}
					emit(key, sum)
					return nil
				})
		},
		InputKey:    recordio.RawString{},
		InputValue:  recordio.Int64{},
		MapKey:      recordio.RawString{},
		MapValue:    recordio.Int64{},
		OutputKey:   recordio.RawString{},
		OutputValue: recordio.Int64{},
		NumReducers: 3,
	}
	if _, err := e.Run(tj.Build()); err != nil {
		t.Fatal(err)
	}
	got := readTypedCounts(t, e, "s2")
	if len(got) != len(want) {
		t.Fatalf("%d words, want %d", len(got), len(want))
	}
	for w, n := range want {
		if got[w] != n {
			t.Fatalf("%s: %d, want %d", w, got[w], n)
		}
	}
}

// TestTypedJobInt64KeyOrder checks that an order-preserving binary
// key codec yields numerically sorted reducer output — including
// negative keys, which a text sort would misplace — without any
// custom comparator.
func TestTypedJobInt64KeyOrder(t *testing.T) {
	e := newTestEngine(t, 64)
	writeInput(t, e, "in/f", "ignored\n")
	keys := []int64{5, -3, 900, 0, -77, 12, 4}
	tj := &TypedJob[string, string, int64, int64, int64, int64]{
		Name:       "typed-order",
		InputPaths: []string{"in/f"},
		OutputPath: "out",
		Mapper: func() TypedMapper[string, string, int64, int64] {
			return TypedMapFunc[string, string, int64, int64](
				func(_ *TaskContext, _, _ string, emit TypedEmit[int64, int64]) error {
					for _, k := range keys {
						emit(k, k*10)
					}
					return nil
				})
		},
		Reducer: func() TypedReducer[int64, int64, int64, int64] {
			return TypedReduceFunc[int64, int64, int64, int64](
				func(_ *TaskContext, key int64, values []int64, emit TypedEmit[int64, int64]) error {
					emit(key, values[0])
					return nil
				})
		},
		InputKey:    recordio.RawString{},
		InputValue:  recordio.RawString{},
		MapKey:      recordio.Int64{},
		MapValue:    recordio.Int64{},
		OutputKey:   recordio.Int64{},
		OutputValue: recordio.Int64{},
		NumReducers: 1,
	}
	if _, err := e.Run(tj.Build()); err != nil {
		t.Fatal(err)
	}
	var got []int64
	err := ReadOutput(e, "out", recordio.Int64{}, recordio.Int64{}, func(k, _ int64) error {
		got = append(got, k)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{-77, -3, 0, 4, 5, 12, 900}
	if len(got) != len(want) {
		t.Fatalf("%d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("key order %v, want %v", got, want)
		}
	}
}

// TestTypedJobCustomKeyCompare flips the sort order via KeyCompare.
func TestTypedJobCustomKeyCompare(t *testing.T) {
	e := newTestEngine(t, 64)
	writeInput(t, e, "in/f", "ignored\n")
	cdc := recordio.Int64{}
	tj := &TypedJob[string, string, int64, int64, int64, int64]{
		Name:       "typed-desc",
		InputPaths: []string{"in/f"},
		OutputPath: "out",
		Mapper: func() TypedMapper[string, string, int64, int64] {
			return TypedMapFunc[string, string, int64, int64](
				func(_ *TaskContext, _, _ string, emit TypedEmit[int64, int64]) error {
					for _, k := range []int64{1, 3, 2} {
						emit(k, 0)
					}
					return nil
				})
		},
		Reducer: func() TypedReducer[int64, int64, int64, int64] {
			return TypedReduceFunc[int64, int64, int64, int64](
				func(_ *TaskContext, key int64, _ []int64, emit TypedEmit[int64, int64]) error {
					emit(key, 0)
					return nil
				})
		},
		InputKey:    recordio.RawString{},
		InputValue:  recordio.RawString{},
		MapKey:      cdc,
		MapValue:    recordio.Int64{},
		OutputKey:   recordio.Int64{},
		OutputValue: recordio.Int64{},
		NumReducers: 1,
		KeyCompare:  func(a, b string) int { return cdc.RawCompare(b, a) }, // descending
	}
	if _, err := e.Run(tj.Build()); err != nil {
		t.Fatal(err)
	}
	var got []int64
	err := ReadOutput(e, "out", cdc, recordio.Int64{}, func(k, _ int64) error {
		got = append(got, k)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 3 || got[1] != 2 || got[2] != 1 {
		t.Fatalf("descending order broken: %v", got)
	}
}

// TestTypedMapOnlyJob checks that a map-only typed job writes binary
// part-m files whose records decode back through the codecs.
func TestTypedMapOnlyJob(t *testing.T) {
	e := newTestEngine(t, 64)
	writeInput(t, e, "in/f", "one two three\n")
	tj := &TypedJob[string, string, string, int64, string, int64]{
		Name:       "typed-maponly",
		InputPaths: []string{"in/f"},
		OutputPath: "out",
		Mapper: func() TypedMapper[string, string, string, int64] {
			return TypedMapFunc[string, string, string, int64](
				func(_ *TaskContext, _, line string, emit TypedEmit[string, int64]) error {
					for i, w := range strings.Fields(line) {
						emit(w, int64(i))
					}
					return nil
				})
		},
		InputKey:   recordio.RawString{},
		InputValue: recordio.RawString{},
		MapKey:     recordio.RawString{},
		MapValue:   recordio.Int64{},
	}
	res, err := e.Run(tj.Build())
	if err != nil {
		t.Fatal(err)
	}
	data, err := e.FS().ReadAll(res.OutputFiles[0])
	if err != nil {
		t.Fatal(err)
	}
	if !recordio.IsRecordData(data) {
		t.Fatal("typed map-only job wrote a text part file")
	}
	got := readTypedCounts(t, e, "out")
	if got["one"] != 0 || got["two"] != 1 || got["three"] != 2 {
		t.Fatalf("wrong map-only output: %v", got)
	}
}

// TestTypedDecodeErrorFailsTask feeds a typed job input its codec
// rejects and expects a job error, not silent corruption.
func TestTypedDecodeErrorFailsTask(t *testing.T) {
	e := newTestEngine(t, 64)
	writeInput(t, e, "in/f", "not an int64 encoding\n")
	tj := &TypedJob[string, int64, string, int64, string, int64]{
		Name:       "typed-badinput",
		InputPaths: []string{"in/f"},
		OutputPath: "out",
		Mapper: func() TypedMapper[string, int64, string, int64] {
			return TypedMapFunc[string, int64, string, int64](
				func(_ *TaskContext, _ string, n int64, emit TypedEmit[string, int64]) error {
					emit("k", n)
					return nil
				})
		},
		InputKey:   recordio.RawString{},
		InputValue: recordio.Int64{}, // text lines cannot decode as int64
		MapKey:     recordio.RawString{},
		MapValue:   recordio.Int64{},
	}
	if _, err := e.Run(tj.Build()); err == nil {
		t.Fatal("want decode error to fail the job")
	}
}

// cleanupMapper buffers word counts during Map and flushes them only
// in Cleanup, in sorted order — the canonical in-mapper-combining
// shape whose Cleanup emissions must flow through the typed lowering
// (encoding, partitioning, spill) exactly like Map-time emissions.
type cleanupMapper struct {
	TypedMapperBase[string, int64]
	counts map[string]int64
}

func (m *cleanupMapper) Setup(*TaskContext) error {
	m.counts = map[string]int64{}
	return nil
}

func (m *cleanupMapper) Map(_ *TaskContext, _, line string, _ TypedEmit[string, int64]) error {
	for _, w := range strings.Fields(line) {
		m.counts[w]++
	}
	return nil
}

func (m *cleanupMapper) Cleanup(_ *TaskContext, emit TypedEmit[string, int64]) error {
	words := make([]string, 0, len(m.counts))
	for w := range m.counts {
		words = append(words, w)
	}
	sort.Strings(words)
	for _, w := range words {
		emit(w, m.counts[w])
	}
	return nil
}

// cleanupReducer sums values per key and emits one extra record from
// Cleanup counting the groups it saw, exercising the typed reducer's
// Cleanup emission path (which encodes through the output codecs).
type cleanupReducer struct {
	TypedReducerBase[string, int64]
	groups int64
}

func (r *cleanupReducer) Reduce(_ *TaskContext, key string, values []int64, emit TypedEmit[string, int64]) error {
	var sum int64
	for _, v := range values {
		sum += v
	}
	emit(key, sum)
	r.groups++
	return nil
}

func (r *cleanupReducer) Cleanup(_ *TaskContext, emit TypedEmit[string, int64]) error {
	emit("~groups", r.groups)
	return nil
}

// TestTypedCleanupEmission checks that records emitted from typed
// Mapper.Cleanup and Reducer.Cleanup reach the output with correct
// encodings: the mapper emits everything from Cleanup, and the
// reducer appends a Cleanup summary record.
func TestTypedCleanupEmission(t *testing.T) {
	e := newTestEngine(t, 64)
	writeInput(t, e, "in/f", strings.Repeat("alpha beta beta gamma\n", 30))
	tj := &TypedJob[string, string, string, int64, string, int64]{
		Name:       "typed-cleanup",
		InputPaths: []string{"in/f"},
		OutputPath: "out",
		Mapper: func() TypedMapper[string, string, string, int64] {
			return &cleanupMapper{}
		},
		Reducer: func() TypedReducer[string, int64, string, int64] {
			return &cleanupReducer{}
		},
		InputKey:    recordio.RawString{},
		InputValue:  recordio.RawString{},
		MapKey:      recordio.RawString{},
		MapValue:    recordio.Int64{},
		OutputKey:   recordio.RawString{},
		OutputValue: recordio.Int64{},
		NumReducers: 2,
	}
	if _, err := e.Run(tj.Build()); err != nil {
		t.Fatal(err)
	}
	got := readTypedCounts(t, e, "out")
	if got["alpha"] != 30 || got["beta"] != 60 || got["gamma"] != 30 {
		t.Fatalf("mapper Cleanup emissions lost or miscounted: %v", got)
	}
	// Each reducer's Cleanup adds its group count; summed across the
	// two reducers this is the number of distinct words.
	if got["~groups"] != 3 {
		t.Fatalf("reducer Cleanup emission: got %d groups, want 3", got["~groups"])
	}
}

// TestTypedEmitAllocatesNothingPerRecord drives a lowered mapper into a
// map task's buffer: input decode, typed emit, partition and index
// entry together cost no allocation of their own — only the buffer's
// rare growth, which rounds to nothing per record.
func TestTypedEmitAllocatesNothingPerRecord(t *testing.T) {
	tj := &TypedJob[string, string, int64, int64, int64, int64]{
		Mapper: func() TypedMapper[string, string, int64, int64] {
			return TypedMapFunc[string, string, int64, int64](
				func(_ *TaskContext, _ string, line string, emit TypedEmit[int64, int64]) error {
					emit(int64(len(line)%11), 1)
					return nil
				})
		},
		InputKey: recordio.RawString{}, InputValue: recordio.RawString{},
		MapKey: recordio.Int64{}, MapValue: recordio.Int64{},
	}
	job := tj.Build()
	ctx := &TaskContext{}
	sp := newMapSpiller(nil, ctx, TaskSpec{Job: job, NumReducers: 4}, false)
	ctx.out = sp
	m := job.newMapper()
	if err := m.Setup(ctx); err != nil {
		t.Fatal(err)
	}
	const records = 1000
	lines := []string{"a", "bb", "a longer line", ""}
	perRun := testing.AllocsPerRun(200, func() {
		for i := 0; i < records; i++ {
			if err := m.Map(ctx, "0", lines[i%len(lines)]); err != nil {
				t.Fatal(err)
			}
		}
	})
	if perRun/records >= 0.001 {
		t.Fatalf("%.1f allocations per %d records", perRun, records)
	}
	if got := sp.stats.MapOutputRecords; got != 201*records {
		t.Fatalf("buffer holds %d records, want %d", got, 201*records)
	}
}
