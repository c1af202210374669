package mapreduce

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/recordio"
)

// newTestEngine builds an engine over a small cluster with a small
// chunk size so multi-chunk behaviour is exercised.
func newTestEngine(t *testing.T, chunkSize int64) *Engine {
	t.Helper()
	c, err := cluster.NewUniform(6, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := dfs.New(c, dfs.Config{ChunkSize: chunkSize, Replication: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(c, fs, Options{})
}

// wordMapper tokenizes lines into (word, 1) pairs.
type wordMapper struct{ strMapperBase }

func (wordMapper) Map(_ *TaskContext, _, value string, emit strEmit) error {
	for _, w := range strings.Fields(value) {
		emit(w, "1")
	}
	return nil
}

// sumReducer sums integer values per key.
type sumReducer struct{ strReducerBase }

func (sumReducer) Reduce(_ *TaskContext, key string, values []string, emit strEmit) error {
	total := 0
	for _, v := range values {
		n, err := strconv.Atoi(v)
		if err != nil {
			return err
		}
		total += n
	}
	emit(key, strconv.Itoa(total))
	return nil
}

func writeInput(t *testing.T, e *Engine, path, content string) {
	t.Helper()
	if err := e.FS().Create(path, []byte(content), ""); err != nil {
		t.Fatal(err)
	}
}

func TestWordCountEndToEnd(t *testing.T) {
	e := newTestEngine(t, 32) // tiny chunks: many splits
	text := strings.Repeat("the quick brown fox jumps over the lazy dog\n", 50)
	writeInput(t, e, "in/text", text)

	res, err := e.Run(build(strJob{
		Name:        "wordcount",
		InputPaths:  []string{"in"},
		OutputPath:  "out",
		Mapper:      func() strMapper { return wordMapper{} },
		Reducer:     func() strReducer { return sumReducer{} },
		NumReducers: 3,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.MapTasks < 10 {
		t.Fatalf("expected many map tasks with 32-byte chunks, got %d", res.MapTasks)
	}
	if res.ReduceTasks != 3 {
		t.Fatalf("ReduceTasks = %d", res.ReduceTasks)
	}
	kvs, err := readKVs(e, "out")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, kv := range kvs {
		got[kv.Key] = kv.Value
	}
	want := map[string]string{
		"the": "100", "quick": "50", "brown": "50", "fox": "50",
		"jumps": "50", "over": "50", "lazy": "50", "dog": "50",
	}
	if len(got) != len(want) {
		t.Fatalf("got %d words, want %d: %v", len(got), len(want), got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: got %s, want %s", k, got[k], v)
		}
	}
	// Counters: 50 lines in, 450 map outputs.
	if n := res.Counters.Value(CounterGroupTask, CounterMapInputRecords); n != 50 {
		t.Errorf("map_input_records = %d, want 50", n)
	}
	if n := res.Counters.Value(CounterGroupTask, CounterMapOutputRecords); n != 450 {
		t.Errorf("map_output_records = %d, want 450", n)
	}
	if n := res.Counters.Value(CounterGroupTask, CounterReduceInputGroups); n != 8 {
		t.Errorf("reduce_input_groups = %d, want 8", n)
	}
}

func TestNoRecordLossAcrossChunkBoundaries(t *testing.T) {
	// Records must be processed exactly once regardless of chunk size;
	// this is the LineRecordReader boundary contract.
	for _, chunk := range []int64{7, 16, 31, 64, 100, 1000, 1 << 20} {
		e := newTestEngine(t, chunk)
		var sb strings.Builder
		const n = 500
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, "rec%04d\n", i)
		}
		writeInput(t, e, "in/f", sb.String())
		_, err := e.Run(build(strJob{
			Name:       "identity",
			InputPaths: []string{"in/f"},
			OutputPath: "out",
			Mapper: func() strMapper {
				return strMapFunc(func(_ *TaskContext, _, v string, emit strEmit) error {
					emit(v, "x")
					return nil
				})
			},
			Reducer: func() strReducer {
				return strReduceFunc(func(_ *TaskContext, k string, vs []string, emit strEmit) error {
					emit(k, strconv.Itoa(len(vs)))
					return nil
				})
			},
		}))
		if err != nil {
			t.Fatalf("chunk=%d: %v", chunk, err)
		}
		kvs, err := readKVs(e, "out")
		if err != nil {
			t.Fatal(err)
		}
		if len(kvs) != n {
			t.Fatalf("chunk=%d: %d distinct records, want %d", chunk, len(kvs), n)
		}
		for _, kv := range kvs {
			if kv.Value != "1" {
				t.Fatalf("chunk=%d: record %s seen %s times", chunk, kv.Key, kv.Value)
			}
		}
	}
}

func TestRecordOffsetsAreFileOffsets(t *testing.T) {
	e := newTestEngine(t, 10)
	writeInput(t, e, "in/f", "aaaa\nbbbb\ncccc\ndddd\n")
	var mu sync.Mutex
	offsets := map[string]string{}
	_, err := e.Run(build(strJob{
		Name:       "offsets",
		InputPaths: []string{"in/f"},
		OutputPath: "out",
		Mapper: func() strMapper {
			return strMapFunc(func(_ *TaskContext, k, v string, _ strEmit) error {
				mu.Lock()
				offsets[v] = k
				mu.Unlock()
				return nil
			})
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"aaaa": "0", "bbbb": "5", "cccc": "10", "dddd": "15"}
	for line, off := range want {
		if offsets[line] != off {
			t.Errorf("offset of %q = %s, want %s", line, offsets[line], off)
		}
	}
}

func TestMapOnlyJob(t *testing.T) {
	e := newTestEngine(t, 64)
	writeInput(t, e, "in/f", "keep 1\ndrop 2\nkeep 3\n")
	res, err := e.Run(build(strJob{
		Name:       "filter",
		InputPaths: []string{"in/f"},
		OutputPath: "out",
		Mapper: func() strMapper {
			return strMapFunc(func(_ *TaskContext, _, v string, emit strEmit) error {
				if strings.HasPrefix(v, "keep") {
					emit("k", v)
				}
				return nil
			})
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.ReduceTasks != 0 {
		t.Fatalf("map-only job ran %d reducers", res.ReduceTasks)
	}
	for _, f := range res.OutputFiles {
		if !strings.Contains(f, "part-m-") {
			t.Fatalf("map-only output file %s should be part-m", f)
		}
	}
	kvs, err := readKVs(e, "out")
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 2 {
		t.Fatalf("got %d records, want 2", len(kvs))
	}
}

func TestCombinerReducesShuffleVolume(t *testing.T) {
	e1 := newTestEngine(t, 32)
	e2 := newTestEngine(t, 32)
	text := strings.Repeat("alpha beta alpha gamma alpha beta\n", 100)
	writeInput(t, e1, "in/f", text)
	writeInput(t, e2, "in/f", text)

	base := strJob{
		Name:       "nocombine",
		InputPaths: []string{"in/f"},
		OutputPath: "out",
		Mapper:     func() strMapper { return wordMapper{} },
		Reducer:    func() strReducer { return sumReducer{} },
	}
	r1, err := e1.Run(build(base))
	if err != nil {
		t.Fatal(err)
	}
	withComb := base
	withComb.Name = "combine"
	withComb.Combiner = func() strReducer { return sumReducer{} }
	r2, err := e2.Run(build(withComb))
	if err != nil {
		t.Fatal(err)
	}

	// Same final answer.
	o1, _ := readKVs(e1, "out")
	o2, _ := readKVs(e2, "out")
	if fmt.Sprint(o1) != fmt.Sprint(o2) {
		t.Fatalf("combiner changed results:\n%v\n%v", o1, o2)
	}
	// Lower shuffle bytes.
	s1 := r1.Counters.Value(CounterGroupShuffle, CounterShuffleBytes)
	s2 := r2.Counters.Value(CounterGroupShuffle, CounterShuffleBytes)
	if s2 >= s1 {
		t.Fatalf("combiner did not reduce shuffle: %d vs %d", s2, s1)
	}
	if r2.Counters.Value(CounterGroupTask, CounterCombineInput) == 0 {
		t.Fatal("combine_input_records not counted")
	}
}

func TestMapperStateAcrossRecordsAndCleanup(t *testing.T) {
	// A stateful mapper (like the sampling mapper) must see records of
	// its split in order and be able to flush in Cleanup.
	e := newTestEngine(t, 1<<20) // single chunk: one mapper
	writeInput(t, e, "in/f", "1\n2\n3\n4\n5\n")
	_, err := e.Run(build(strJob{
		Name:       "stateful",
		InputPaths: []string{"in/f"},
		OutputPath: "out",
		Mapper:     func() strMapper { return &statefulSum{} },
	}))
	if err != nil {
		t.Fatal(err)
	}
	kvs, _ := readKVs(e, "out")
	if len(kvs) != 1 || kvs[0].Key != "sum" || kvs[0].Value != "15" {
		t.Fatalf("got %v, want [sum 15]", kvs)
	}
}

type statefulSum struct {
	strMapperBase
	sum int
}

func (m *statefulSum) Map(_ *TaskContext, _, v string, _ strEmit) error {
	n, err := strconv.Atoi(v)
	if err != nil {
		return err
	}
	m.sum += n
	return nil
}

func (m *statefulSum) Cleanup(_ *TaskContext, emit strEmit) error {
	emit("sum", strconv.Itoa(m.sum))
	return nil
}

func TestDistributedCacheAndConf(t *testing.T) {
	e := newTestEngine(t, 64)
	writeInput(t, e, "in/f", "x\n")
	var gotCache string
	var gotConf, gotDefault string
	var mu sync.Mutex
	_, err := e.Run(build(strJob{
		Name:       "cache",
		InputPaths: []string{"in/f"},
		OutputPath: "out",
		Conf:       map[string]string{"window": "60"},
		Cache:      map[string][]byte{"centroids": []byte("c1,c2")},
		Mapper: func() strMapper {
			return strMapFunc(func(ctx *TaskContext, _, _ string, _ strEmit) error {
				b, ok := ctx.CacheFile("centroids")
				if !ok {
					return fmt.Errorf("cache file missing")
				}
				mu.Lock()
				gotCache = string(b)
				gotConf = ctx.Conf("window")
				gotDefault = ctx.ConfDefault("missing", "fallback")
				mu.Unlock()
				if _, ok := ctx.CacheFile("absent"); ok {
					return fmt.Errorf("phantom cache file")
				}
				return nil
			})
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if gotCache != "c1,c2" || gotConf != "60" || gotDefault != "fallback" {
		t.Fatalf("cache=%q conf=%q default=%q", gotCache, gotConf, gotDefault)
	}
}

func TestTaskRetryOnInjectedFailure(t *testing.T) {
	c, _ := cluster.NewUniform(4, 2, 2)
	fs, _ := dfs.New(c, dfs.Config{ChunkSize: 64, Replication: 3, Seed: 1})
	var mu sync.Mutex
	failed := map[string]int{}
	e := NewEngine(c, fs, Options{
		FailureHook: func(taskID string, attempt int, node string) error {
			mu.Lock()
			defer mu.Unlock()
			// Fail the first attempt of every map task.
			if strings.HasPrefix(taskID, "map-") && attempt == 0 {
				failed[taskID]++
				return fmt.Errorf("injected failure")
			}
			return nil
		},
	})
	writeInput(t, e, "in/f", strings.Repeat("hello world\n", 20))
	res, err := e.Run(build(strJob{
		Name:       "retry",
		InputPaths: []string{"in/f"},
		OutputPath: "out",
		Mapper:     func() strMapper { return wordMapper{} },
		Reducer:    func() strReducer { return sumReducer{} },
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != res.MapTasks {
		t.Fatalf("injected %d failures for %d tasks", len(failed), res.MapTasks)
	}
	// Every map task needed 2 attempts.
	for _, tr := range res.Tasks {
		if strings.HasPrefix(tr.ID, "map-") && tr.Attempts != 2 {
			t.Fatalf("task %s: %d attempts, want 2", tr.ID, tr.Attempts)
		}
	}
	kvs, _ := readKVs(e, "out")
	got := map[string]string{}
	for _, kv := range kvs {
		got[kv.Key] = kv.Value
	}
	if got["hello"] != "20" || got["world"] != "20" {
		t.Fatalf("wrong output after retries: %v", got)
	}
}

func TestRetryAvoidsFailingNode(t *testing.T) {
	c, _ := cluster.NewUniform(4, 2, 2)
	fs, _ := dfs.New(c, dfs.Config{ChunkSize: 1 << 20, Replication: 3, Seed: 1})
	badNode := c.Nodes()[0].ID
	var mu sync.Mutex
	attemptNodes := map[int]string{}
	e := NewEngine(c, fs, Options{
		FailureHook: func(taskID string, attempt int, node string) error {
			if !strings.HasPrefix(taskID, "map-") {
				return nil
			}
			mu.Lock()
			attemptNodes[attempt] = node
			mu.Unlock()
			if node == badNode {
				return fmt.Errorf("bad node")
			}
			return nil
		},
	})
	writeInput(t, e, "in/f", "x\n")
	res, err := e.Run(build(strJob{
		Name:        "avoid",
		InputPaths:  []string{"in/f"},
		OutputPath:  "out",
		Mapper:      func() strMapper { return wordMapper{} },
		MaxAttempts: 5,
	}))
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for a := 1; a < len(attemptNodes); a++ {
		if attemptNodes[a] == attemptNodes[a-1] {
			t.Fatalf("attempt %d reran on the same node %s", a, attemptNodes[a])
		}
	}
	for _, tr := range res.Tasks {
		if tr.Node == badNode {
			t.Fatalf("successful attempt recorded on failing node")
		}
	}
}

func TestJobFailsAfterMaxAttempts(t *testing.T) {
	c, _ := cluster.NewUniform(3, 1, 2)
	fs, _ := dfs.New(c, dfs.Config{ChunkSize: 64, Replication: 2, Seed: 1})
	e := NewEngine(c, fs, Options{
		FailureHook: func(taskID string, attempt int, node string) error {
			return fmt.Errorf("always fails")
		},
	})
	writeInput(t, e, "in/f", "x\n")
	_, err := e.Run(build(strJob{
		Name:        "doomed",
		InputPaths:  []string{"in/f"},
		OutputPath:  "out",
		Mapper:      func() strMapper { return wordMapper{} },
		MaxAttempts: 2,
	}))
	if err == nil || !strings.Contains(err.Error(), "after 2 attempts") {
		t.Fatalf("err = %v, want max-attempts failure", err)
	}
}

func TestMapperErrorFailsJob(t *testing.T) {
	e := newTestEngine(t, 64)
	writeInput(t, e, "in/f", "boom\n")
	_, err := e.Run(build(strJob{
		Name:       "maperr",
		InputPaths: []string{"in/f"},
		OutputPath: "out",
		Mapper: func() strMapper {
			return strMapFunc(func(_ *TaskContext, _, v string, _ strEmit) error {
				return fmt.Errorf("cannot handle %q", v)
			})
		},
		MaxAttempts: 1,
	}))
	if err == nil {
		t.Fatal("want error from failing mapper")
	}
}

func TestReducerErrorFailsJob(t *testing.T) {
	e := newTestEngine(t, 64)
	writeInput(t, e, "in/f", "a\n")
	_, err := e.Run(build(strJob{
		Name:       "rederr",
		InputPaths: []string{"in/f"},
		OutputPath: "out",
		Mapper:     func() strMapper { return wordMapper{} },
		Reducer: func() strReducer {
			return strReduceFunc(func(_ *TaskContext, _ string, _ []string, _ strEmit) error {
				return fmt.Errorf("reduce boom")
			})
		},
		MaxAttempts: 1,
	}))
	if err == nil || !strings.Contains(err.Error(), "reduce boom") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidationErrors(t *testing.T) {
	e := newTestEngine(t, 64)
	writeInput(t, e, "in/f", "x\n")
	mapper := func() strMapper { return wordMapper{} }
	cases := []strJob{
		{InputPaths: []string{"in/f"}, OutputPath: "o", Mapper: mapper},                                                                 // no name
		{Name: "j", OutputPath: "o", Mapper: mapper},                                                                                    // no input
		{Name: "j", InputPaths: []string{"in/f"}, Mapper: mapper},                                                                       // no output
		{Name: "j", InputPaths: []string{"in/f"}, OutputPath: "o"},                                                                      // no mapper
		{Name: "j", InputPaths: []string{"in/f"}, OutputPath: "o", Mapper: mapper, Combiner: func() strReducer { return sumReducer{} }}, // combiner w/o reducer
	}
	for i, j := range cases {
		if _, err := e.Run(build(j)); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
}

func TestMissingInputErrors(t *testing.T) {
	e := newTestEngine(t, 64)
	_, err := e.Run(build(strJob{
		Name:       "noin",
		InputPaths: []string{"does/not/exist"},
		OutputPath: "out",
		Mapper:     func() strMapper { return wordMapper{} },
	}))
	if err == nil {
		t.Fatal("want error for missing input")
	}
}

func TestOutputExistsError(t *testing.T) {
	e := newTestEngine(t, 64)
	writeInput(t, e, "in/f", "x\n")
	writeInput(t, e, "out/part-m-00000", "old\n")
	_, err := e.Run(build(strJob{
		Name:       "clobber",
		InputPaths: []string{"in/f"},
		OutputPath: "out",
		Mapper:     func() strMapper { return wordMapper{} },
	}))
	if err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("err = %v, want output-exists error", err)
	}
}

func TestPipeline(t *testing.T) {
	e := newTestEngine(t, 64)
	writeInput(t, e, "in/f", "a b a\nc a b\n")
	count := build(strJob{
		Name:       "count",
		InputPaths: []string{"in/f"},
		OutputPath: "stage1",
		Mapper:     func() strMapper { return wordMapper{} },
		Reducer:    func() strReducer { return sumReducer{} },
	})
	// Second job: swap (word,count) -> (count,word) and count words per frequency.
	invert := build(strJob{
		Name:       "invert",
		InputPaths: []string{"stage1"},
		OutputPath: "stage2",
		Mapper: func() strMapper {
			return strMapFunc(func(_ *TaskContext, word, cnt string, emit strEmit) error {
				emit(cnt, word)
				return nil
			})
		},
		Reducer: func() strReducer {
			return strReduceFunc(func(_ *TaskContext, k string, vs []string, emit strEmit) error {
				emit(k, strconv.Itoa(len(vs)))
				return nil
			})
		},
	})
	results, err := e.RunPipeline(count, invert)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	kvs, _ := readKVs(e, "stage2")
	got := map[string]string{}
	for _, kv := range kvs {
		got[kv.Key] = kv.Value
	}
	// a:3, b:2, c:1 -> one word each with counts 3,2,1.
	if got["1"] != "1" || got["2"] != "1" || got["3"] != "1" {
		t.Fatalf("got %v", got)
	}
}

func TestPipelineFailsFast(t *testing.T) {
	e := newTestEngine(t, 64)
	writeInput(t, e, "in/f", "x\n")
	bad := build(strJob{Name: "bad", InputPaths: []string{"missing"}, OutputPath: "o1",
		Mapper: func() strMapper { return wordMapper{} }})
	never := build(strJob{Name: "never", InputPaths: []string{"o1"}, OutputPath: "o2",
		Mapper: func() strMapper { return wordMapper{} }})
	results, err := e.RunPipeline(bad, never)
	if err == nil || len(results) != 0 {
		t.Fatalf("results=%d err=%v", len(results), err)
	}
}

func TestLocalityScheduling(t *testing.T) {
	// With replication 3 over 6 nodes, most map tasks should run
	// data-local; all should be at worst rack-local with 2 racks.
	e := newTestEngine(t, 128)
	var sb strings.Builder
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&sb, "line %d with some padding text\n", i)
	}
	writeInput(t, e, "in/f", sb.String())
	res, err := e.Run(build(strJob{
		Name:       "locality",
		InputPaths: []string{"in/f"},
		OutputPath: "out",
		Mapper:     func() strMapper { return wordMapper{} },
	}))
	if err != nil {
		t.Fatal(err)
	}
	dataLocal := res.Counters.Value(CounterGroupScheduler, CounterDataLocal)
	rackLocal := res.Counters.Value(CounterGroupScheduler, CounterRackLocal)
	offRack := res.Counters.Value(CounterGroupScheduler, CounterOffRack)
	total := dataLocal + rackLocal + offRack
	if total != int64(res.MapTasks) {
		t.Fatalf("locality counters %d != map tasks %d", total, res.MapTasks)
	}
	// With 3 replicas over 6 nodes and greedy (non-delay) scheduling,
	// roughly half the tasks land data-local; require a healthy floor.
	if dataLocal < total*2/5 {
		t.Errorf("only %d/%d tasks data-local", dataLocal, total)
	}
	for _, tr := range res.Tasks {
		if strings.HasPrefix(tr.ID, "map-") && tr.Locality == "" {
			t.Errorf("map task %s missing locality", tr.ID)
		}
	}
}

func TestCustomPartitioner(t *testing.T) {
	e := newTestEngine(t, 1<<20)
	writeInput(t, e, "in/f", "a 1\nb 2\na 3\nb 4\n")
	_, err := e.Run(build(strJob{
		Name:        "partition",
		InputPaths:  []string{"in/f"},
		OutputPath:  "out",
		NumReducers: 2,
		Partition: func(key string, n int) int {
			if key == "a" {
				return 0
			}
			return 1
		},
		Mapper: func() strMapper {
			return strMapFunc(func(_ *TaskContext, _, v string, emit strEmit) error {
				k, val, _ := strings.Cut(v, " ")
				emit(k, val)
				return nil
			})
		},
		Reducer: func() strReducer {
			return strReduceFunc(func(_ *TaskContext, k string, vs []string, emit strEmit) error {
				emit(k, strings.Join(vs, "+"))
				return nil
			})
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	for part, want := range []string{"a", "b"} {
		data, _ := e.FS().ReadAll(fmt.Sprintf("out/part-r-%05d", part))
		var keys []string
		if err := recordio.ScanAll(data, func(k, _ string) error {
			keys = append(keys, k)
			return nil
		}); err != nil || len(keys) != 1 || keys[0] != want {
			t.Fatalf("part %d keys = %q (%v), want [%s]", part, keys, err, want)
		}
	}
}

func TestHashPartitionStableAndInRange(t *testing.T) {
	for _, key := range []string{"", "a", "key-1", "key-2", "中文"} {
		p := HashPartition(key, 7)
		if p < 0 || p >= 7 {
			t.Fatalf("partition %d out of range", p)
		}
		if p2 := HashPartition(key, 7); p2 != p {
			t.Fatal("partitioner not deterministic")
		}
	}
}

// TestHashPartitionMatchesFNV pins the inlined hash to hash/fnv's
// 32-bit FNV-1a, which the default partitioner has always been: were a
// value to change, records would change reducer and part files differ.
func TestHashPartitionMatchesFNV(t *testing.T) {
	for _, key := range []string{
		"", "a", "key-1", "中文", "\x00", "\x00\x00\x00\x00\x00\x00\x00\x07", "\xff\xfe\x80\x01",
		strings.Repeat("long key ", 500),
	} {
		h := fnv.New32a()
		h.Write([]byte(key))
		for _, n := range []int{1, 2, 7, 64, 1 << 20} {
			if got, want := HashPartition(key, n), int(h.Sum32()%uint32(n)); got != want {
				t.Errorf("HashPartition(%q, %d) = %d, hash/fnv gives %d", key, n, got, want)
			}
		}
	}
}

func TestReduceValuesGrouped(t *testing.T) {
	// All values for a key must arrive in a single Reduce call.
	e := newTestEngine(t, 16) // many mappers for the same keys
	writeInput(t, e, "in/f", strings.Repeat("k v\n", 50))
	calls := map[string]int{}
	var mu sync.Mutex
	_, err := e.Run(build(strJob{
		Name:       "grouping",
		InputPaths: []string{"in/f"},
		OutputPath: "out",
		Mapper: func() strMapper {
			return strMapFunc(func(_ *TaskContext, _, v string, emit strEmit) error {
				k, val, _ := strings.Cut(v, " ")
				emit(k, val)
				return nil
			})
		},
		Reducer: func() strReducer {
			return strReduceFunc(func(_ *TaskContext, k string, vs []string, emit strEmit) error {
				mu.Lock()
				calls[k]++
				mu.Unlock()
				emit(k, strconv.Itoa(len(vs)))
				return nil
			})
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if calls["k"] != 1 {
		t.Fatalf("Reduce called %d times for key k, want 1", calls["k"])
	}
	kvs, _ := readKVs(e, "out")
	if len(kvs) != 1 || kvs[0].Value != "50" {
		t.Fatalf("got %v", kvs)
	}
}

func TestCountersSnapshotAndString(t *testing.T) {
	cs := NewCounters()
	cs.Get("g1", "a").Inc(3)
	cs.Get("g1", "b").Inc(1)
	cs.Get("g2", "c").Inc(2)
	cs.Get("g1", "a").Inc(4)
	snap := cs.Snapshot()
	if snap["g1"]["a"] != 7 || snap["g1"]["b"] != 1 || snap["g2"]["c"] != 2 {
		t.Fatalf("snapshot = %v", snap)
	}
	s := cs.String()
	want := "g1.a=7\ng1.b=1\ng2.c=2\n"
	if s != want {
		t.Fatalf("String = %q, want %q", s, want)
	}
	if cs.Value("nope", "x") != 0 || cs.Value("g1", "nope") != 0 {
		t.Fatal("missing counters should read 0")
	}
}

func TestEmptyInputFile(t *testing.T) {
	e := newTestEngine(t, 64)
	writeInput(t, e, "in/f", "")
	res, err := e.Run(build(strJob{
		Name:       "empty",
		InputPaths: []string{"in/f"},
		OutputPath: "out",
		Mapper:     func() strMapper { return wordMapper{} },
		Reducer:    func() strReducer { return sumReducer{} },
	}))
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Counters.Value(CounterGroupTask, CounterMapInputRecords); n != 0 {
		t.Fatalf("records = %d", n)
	}
	kvs, err := readKVs(e, "out")
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 0 {
		t.Fatalf("output = %v", kvs)
	}
}

func TestFileWithoutTrailingNewline(t *testing.T) {
	e := newTestEngine(t, 8)
	writeInput(t, e, "in/f", "aa\nbb\ncc") // no trailing \n
	var mu sync.Mutex
	var lines []string
	_, err := e.Run(build(strJob{
		Name:       "notrail",
		InputPaths: []string{"in/f"},
		OutputPath: "out",
		Mapper: func() strMapper {
			return strMapFunc(func(_ *TaskContext, _, v string, _ strEmit) error {
				mu.Lock()
				lines = append(lines, v)
				mu.Unlock()
				return nil
			})
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 3 {
		t.Fatalf("lines = %v, want 3", lines)
	}
}

func TestCRLFInput(t *testing.T) {
	e := newTestEngine(t, 1<<20)
	writeInput(t, e, "in/f", "aa\r\nbb\r\n")
	var mu sync.Mutex
	var lines []string
	_, err := e.Run(build(strJob{
		Name:       "crlf",
		InputPaths: []string{"in/f"},
		OutputPath: "out",
		Mapper: func() strMapper {
			return strMapFunc(func(_ *TaskContext, _, v string, _ strEmit) error {
				mu.Lock()
				lines = append(lines, v)
				mu.Unlock()
				return nil
			})
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 || lines[0] != "aa" && lines[1] != "aa" {
		t.Fatalf("lines = %q", lines)
	}
}

func TestSpeculativeExecutionRescuesStraggler(t *testing.T) {
	// One straggler node: every task it picks takes 300ms instead of
	// ~2ms. The healthy nodes get a small base delay so the straggler
	// is guaranteed to pick up work before the queue drains; once the
	// healthy nodes run dry they launch backups (necessarily on
	// healthy nodes — the straggler already runs the original) and the
	// job finishes long before 300ms.
	c, _ := cluster.NewUniform(4, 2, 1)
	slowNode := c.Nodes()[0].ID
	fs, _ := dfs.New(c, dfs.Config{ChunkSize: 64, Replication: 3, Seed: 1})
	e := NewEngine(c, fs, Options{
		SpeculativeSlack: 20 * time.Millisecond,
		NodeDelay: func(node string) time.Duration {
			if node == slowNode {
				return 300 * time.Millisecond
			}
			return 2 * time.Millisecond
		},
	})
	writeInput(t, e, "in/f", strings.Repeat("hello world\n", 50))
	start := time.Now()
	res, err := e.Run(build(strJob{
		Name:       "speculate",
		InputPaths: []string{"in/f"},
		OutputPath: "out",
		Mapper:     func() strMapper { return wordMapper{} },
		Reducer:    func() strReducer { return sumReducer{} },
	}))
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	launched := res.Counters.Value(CounterGroupScheduler, CounterSpeculativeLaunched)
	if launched == 0 {
		t.Fatal("no speculative attempts launched")
	}
	// The backup must let the job finish well before the 300ms
	// straggler on every phase would allow (map + reduce serially on
	// the slow node would exceed 300ms at minimum).
	if wall >= 280*time.Millisecond {
		t.Errorf("wall %v suggests speculation did not help", wall)
	}
	// Output must still be correct exactly once.
	kvs, _ := readKVs(e, "out")
	got := map[string]string{}
	for _, kv := range kvs {
		got[kv.Key] = kv.Value
	}
	if got["hello"] != "50" || got["world"] != "50" {
		t.Fatalf("wrong output with speculation: %v", got)
	}
	if n := res.Counters.Value(CounterGroupTask, CounterMapInputRecords); n != 50 {
		t.Fatalf("map_input_records = %d (speculative double-count?)", n)
	}
}

func TestSpeculationDisabledByDefault(t *testing.T) {
	e := newTestEngine(t, 1<<20)
	writeInput(t, e, "in/f", "a b c\n")
	res, err := e.Run(build(strJob{
		Name:       "nospec",
		InputPaths: []string{"in/f"},
		OutputPath: "out",
		Mapper:     func() strMapper { return wordMapper{} },
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Value(CounterGroupScheduler, CounterSpeculativeLaunched) != 0 {
		t.Fatal("speculation ran without being enabled")
	}
}

func TestSpeculativeWastedCounted(t *testing.T) {
	// Both the original and the backup eventually finish; the loser
	// must be counted as wasted and not duplicate output.
	c, _ := cluster.NewUniform(3, 1, 1)
	slowNode := c.Nodes()[0].ID
	fs, _ := dfs.New(c, dfs.Config{ChunkSize: 1 << 20, Replication: 3, Seed: 1})
	e := NewEngine(c, fs, Options{
		SpeculativeSlack: 10 * time.Millisecond,
		NodeDelay: func(node string) time.Duration {
			if node == slowNode {
				return 120 * time.Millisecond
			}
			return 0
		},
	})
	writeInput(t, e, "in/f", "x\n")
	res, err := e.Run(build(strJob{
		Name:       "wasted",
		InputPaths: []string{"in/f"},
		OutputPath: "out",
		Mapper:     func() strMapper { return wordMapper{} },
	}))
	if err != nil {
		t.Fatal(err)
	}
	// Wait-free check: every launched backup either won or was wasted;
	// totals must be consistent.
	launched := res.Counters.Value(CounterGroupScheduler, CounterSpeculativeLaunched)
	if launched > 0 {
		kvs, _ := readKVs(e, "out")
		if len(kvs) != 1 {
			t.Fatalf("duplicate output records: %v", kvs)
		}
	}
}

func TestFailedJobCleansPartialOutputAndRerunSucceeds(t *testing.T) {
	// A job that dies after committing some part files must not leave
	// them in DFS: the rerun of the same job on the same output path
	// would otherwise refuse to start with "output path already exists".
	e := newTestEngine(t, 16) // several map tasks
	writeInput(t, e, "in/f", "aaaa bbbb\ncccc dddd\neeee ffff\n")
	var sabotage sync.Once
	fs := e.FS()
	mapper := func() strMapper {
		return strMapFunc(func(_ *TaskContext, _, v string, emit strEmit) error {
			// First run only: plant a file where the engine will write
			// its second part file, making that commit fail after the
			// first part file has already been written.
			sabotage.Do(func() {
				_ = fs.Create("out/part-m-00001", []byte("squatter\n"), "")
			})
			emit(v, "1")
			return nil
		})
	}
	job := build(strJob{
		Name:       "partial",
		InputPaths: []string{"in/f"},
		OutputPath: "out",
		Mapper:     mapper,
	})
	if _, err := e.Run(job); err == nil {
		t.Fatal("first run should fail on the planted part file")
	}
	if left := fs.List("out"); len(left) != 0 {
		t.Fatalf("failed job left files behind: %v", left)
	}
	if _, err := e.Run(job); err != nil {
		t.Fatalf("rerun on the same output path: %v", err)
	}
	kvs, err := readKVs(e, "out")
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 3 {
		t.Fatalf("rerun output = %v, want 3 records", kvs)
	}
}

func TestFailedReduceJobCleansOutputForRerun(t *testing.T) {
	// Same contract on the reduce path: a job failing in the reduce
	// phase must be rerunnable on the same output path.
	c, _ := cluster.NewUniform(4, 2, 2)
	fs, _ := dfs.New(c, dfs.Config{ChunkSize: 64, Replication: 3, Seed: 1})
	failing := true
	var mu sync.Mutex
	e := NewEngine(c, fs, Options{
		FailureHook: func(taskID string, attempt int, node string) error {
			mu.Lock()
			defer mu.Unlock()
			if failing && strings.HasPrefix(taskID, "reduce-") {
				return fmt.Errorf("injected reduce failure")
			}
			return nil
		},
	})
	writeInput(t, e, "in/f", "a b a\n")
	job := build(strJob{
		Name:        "redfail",
		InputPaths:  []string{"in/f"},
		OutputPath:  "out",
		Mapper:      func() strMapper { return wordMapper{} },
		Reducer:     func() strReducer { return sumReducer{} },
		MaxAttempts: 1,
	})
	if _, err := e.Run(job); err == nil {
		t.Fatal("first run should fail in reduce")
	}
	mu.Lock()
	failing = false
	mu.Unlock()
	if _, err := e.Run(job); err != nil {
		t.Fatalf("rerun on the same output path: %v", err)
	}
}

func TestSecondBackupAfterFailedBackup(t *testing.T) {
	// When a speculative backup fails while the primary is still
	// running, its speculation slot must be released so the straggling
	// task can receive another backup — and the retried attempts must
	// get attempt numbers that never collide with ones already used.
	c, _ := cluster.NewUniform(3, 1, 1)
	fs, _ := dfs.New(c, dfs.Config{ChunkSize: 1 << 20, Replication: 3, Seed: 1})
	e := NewEngine(c, fs, Options{
		SpeculativeSlack: 10 * time.Millisecond,
		FailureHook: func(taskID string, attempt int, node string) error {
			switch attempt {
			case 0:
				time.Sleep(200 * time.Millisecond) // straggling primary
				return nil
			case 1:
				return fmt.Errorf("backup dies") // first backup fails fast
			default:
				return nil // second backup succeeds
			}
		},
	})
	writeInput(t, e, "in/f", "x y z\n")
	res, err := e.Run(build(strJob{
		Name:       "rebackup",
		InputPaths: []string{"in/f"},
		OutputPath: "out",
		Mapper:     func() strMapper { return wordMapper{} },
	}))
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Counters.Value(CounterGroupScheduler, CounterSpeculativeLaunched); n < 2 {
		t.Fatalf("speculative_launched = %d, want >= 2 (second backup after the failed one)", n)
	}
	// Attempt numbers must be unique per task across all records.
	seen := map[string]map[int]bool{}
	for _, a := range res.Attempts {
		if seen[a.Task] == nil {
			seen[a.Task] = map[int]bool{}
		}
		if seen[a.Task][a.Attempt] {
			t.Fatalf("attempt number %d reused for task %s: %+v", a.Attempt, a.Task, res.Attempts)
		}
		seen[a.Task][a.Attempt] = true
	}
	kvs, _ := readKVs(e, "out")
	if len(kvs) != 3 {
		t.Fatalf("output = %v, want 3 records exactly once", kvs)
	}
	// Let the sleeping primary drain before the test (and its cluster)
	// goes away.
	time.Sleep(250 * time.Millisecond)
}

func TestAttemptRecordsStableAfterRunReturns(t *testing.T) {
	// Run returns as soon as every task has a winner; an abandoned
	// speculative loser may still be executing and will append its
	// attempt record afterwards. res.Attempts must be a snapshot that
	// the caller can read while the loser drains (-race regression).
	c, _ := cluster.NewUniform(3, 1, 1)
	fs, _ := dfs.New(c, dfs.Config{ChunkSize: 1 << 20, Replication: 3, Seed: 1})
	e := NewEngine(c, fs, Options{
		SpeculativeSlack: 10 * time.Millisecond,
	})
	writeInput(t, e, "in/f", "x\n")
	// The first attempt to reach Map becomes the straggler — after its
	// split is already read, so the loser touches no shared lock
	// between the job's return and its own late attempt-record append.
	var attempts atomic.Int32
	res, err := e.Run(build(strJob{
		Name:       "snapshot",
		InputPaths: []string{"in/f"},
		OutputPath: "out",
		Mapper: func() strMapper {
			return strMapFunc(func(_ *TaskContext, _, v string, emit strEmit) error {
				if attempts.Add(1) == 1 {
					time.Sleep(120 * time.Millisecond)
				}
				emit(v, "1")
				return nil
			})
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	// Read the records while any loser is still finishing; under -race
	// this must not conflict with the loser's append.
	for _, a := range res.Attempts {
		if a.Task == "" {
			t.Fatal("empty attempt record")
		}
	}
	time.Sleep(150 * time.Millisecond) // let the loser record its kill
	for _, a := range res.Attempts {
		if a.Status == "" {
			t.Fatal("attempt record mutated after return")
		}
	}
}

func TestShuffleCountersAndPartitionDetail(t *testing.T) {
	e := newTestEngine(t, 32)
	writeInput(t, e, "in/f", strings.Repeat("alpha beta gamma delta\n", 25))
	res, err := e.Run(build(strJob{
		Name:        "shufcount",
		InputPaths:  []string{"in/f"},
		OutputPath:  "out",
		Mapper:      func() strMapper { return wordMapper{} },
		Reducer:     func() strReducer { return sumReducer{} },
		NumReducers: 3,
	}))
	if err != nil {
		t.Fatal(err)
	}
	runs := res.Counters.Value(CounterGroupShuffle, CounterShuffleRunsMerged)
	spilled := res.Counters.Value(CounterGroupShuffle, CounterShuffleSpilledRecords)
	mapOut := res.Counters.Value(CounterGroupTask, CounterMapOutputRecords)
	if runs <= 0 || runs > int64(res.MapTasks*res.ReduceTasks) {
		t.Fatalf("shuffle_runs_merged = %d with %d maps x %d reducers", runs, res.MapTasks, res.ReduceTasks)
	}
	// Without a combiner every map output record is spilled exactly
	// once and crosses the shuffle exactly once.
	if spilled != mapOut {
		t.Fatalf("shuffle_spilled_records = %d, want %d (map output records)", spilled, mapOut)
	}
	if in := res.Counters.Value(CounterGroupTask, CounterReduceInputRecords); in != spilled {
		t.Fatalf("reduce_input_records = %d, want %d", in, spilled)
	}
	if res.Counters.Value(CounterGroupShuffle, CounterShuffleBytes) <= 0 {
		t.Fatal("shuffle_bytes not counted")
	}
}

func TestResultReportJSON(t *testing.T) {
	e := newTestEngine(t, 64)
	writeInput(t, e, "in/f", "a b a\n")
	res, err := e.Run(build(strJob{
		Name:       "report",
		InputPaths: []string{"in/f"},
		OutputPath: "out",
		Mapper:     func() strMapper { return wordMapper{} },
		Reducer:    func() strReducer { return sumReducer{} },
	}))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res.Report())
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Job != "report" || back.MapTasks != res.MapTasks {
		t.Fatalf("report round-trip mismatch: %+v", back)
	}
	if back.Counters["task"]["map_input_records"] != 1 {
		t.Fatalf("counters not serialized: %v", back.Counters)
	}
	if len(back.Tasks) == 0 || back.Tasks[0].ID == "" {
		t.Fatalf("tasks not serialized: %+v", back.Tasks)
	}
}

func TestTaskOverheadSlowsJobs(t *testing.T) {
	mk := func(overhead time.Duration) time.Duration {
		c, _ := cluster.NewUniform(2, 1, 1)
		fs, _ := dfs.New(c, dfs.Config{ChunkSize: 1 << 20, Replication: 2, Seed: 1})
		e := NewEngine(c, fs, Options{TaskOverhead: overhead})
		if err := fs.Create("in/f", []byte("x\n"), ""); err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(build(strJob{
			Name:       "overhead",
			InputPaths: []string{"in/f"},
			OutputPath: "out",
			Mapper:     func() strMapper { return wordMapper{} },
		}))
		if err != nil {
			t.Fatal(err)
		}
		return res.Wall
	}
	fast := mk(0)
	slow := mk(50 * time.Millisecond)
	if slow < 50*time.Millisecond {
		t.Fatalf("overhead not applied: wall %v", slow)
	}
	if slow <= fast {
		t.Fatalf("overhead did not slow the job: %v vs %v", slow, fast)
	}
}

// tickMapper ticks a user counter once per input record. The record
// "slow" also stalls its task, holding the map phase open while a
// straggler's losing attempt runs to completion inside it.
type tickMapper struct{ strMapperBase }

func (tickMapper) Map(ctx *TaskContext, _, value string, emit strEmit) error {
	ctx.Counter("user", "records").Inc(1)
	if value == "slow" {
		time.Sleep(200 * time.Millisecond)
	}
	emit(value, "1")
	return nil
}

// TestUserCountersAreWinnerOnly pins the counter semantics both
// backends share: only the winning attempt's ctx.Counter ticks are
// committed. The straggler node's primary attempt loses to a backup,
// then still runs — and ticks — while the "slow" task keeps the phase
// open; none of that may reach the job's counters.
func TestUserCountersAreWinnerOnly(t *testing.T) {
	c, _ := cluster.NewUniform(4, 2, 1)
	slowNode := c.Nodes()[0].ID
	fs, _ := dfs.New(c, dfs.Config{ChunkSize: 64, Replication: 3, Seed: 1})
	e := NewEngine(c, fs, Options{
		SpeculativeSlack: 10 * time.Millisecond,
		NodeDelay: func(node string) time.Duration {
			if node == slowNode {
				return 60 * time.Millisecond
			}
			return 5 * time.Millisecond
		},
	})
	const lines = 41
	writeInput(t, e, "in/f", "slow\n"+strings.Repeat("hello world\n", lines-1))
	res, err := e.Run(build(strJob{
		Name:       "winner-only",
		InputPaths: []string{"in/f"},
		OutputPath: "out",
		Mapper:     func() strMapper { return tickMapper{} },
		Reducer:    func() strReducer { return sumReducer{} },
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Value(CounterGroupScheduler, CounterSpeculativeLaunched) == 0 {
		t.Fatal("no speculative attempt launched; the fixture exercises nothing")
	}
	if n := res.Counters.Value(CounterGroupTask, CounterMapInputRecords); n != lines {
		t.Fatalf("map_input_records = %d, want %d", n, lines)
	}
	if n := res.Counters.Value("user", "records"); n != lines {
		t.Fatalf("user counter = %d, want %d: a losing attempt's ticks were committed", n, lines)
	}
}
