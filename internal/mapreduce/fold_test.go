package mapreduce

import (
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/recordio"
)

// The fold is the map side's emit-time combine (spill.go). These tests
// pin what it may not change: a job's output, whatever its mapper and
// combiner do with their own memory and whatever the combiner emits.

type listJob = TypedJob[string, string, string, []uint64, string, []uint64]

// reusingMapper emits, for each word, its length and position under the
// word's first letter, from one slice it overwrites the moment emit
// returns — as the DJ-Cluster neighborhood mapper reuses its hood.
type reusingMapper struct {
	TypedMapperBase[string, []uint64]
	buf []uint64
}

func (m *reusingMapper) Map(_ *TaskContext, _, line string, emit TypedEmit[string, []uint64]) error {
	for i, w := range strings.Fields(line) {
		m.buf = append(m.buf[:0], uint64(len(w)), uint64(i))
		emit(w[:1], m.buf)
		m.buf[0], m.buf[1] = 1<<60, 1<<60
	}
	return nil
}

// concatReducer emits all of a key's list elements as one list — sorted
// when it reduces, in arrival order when it combines — from a slice it
// reuses on the next call.
type concatReducer struct {
	TypedReducerBase[string, []uint64]
	sorted bool
	all    []uint64
}

func (r *concatReducer) Reduce(ctx *TaskContext, key string, values [][]uint64, emit TypedEmit[string, []uint64]) error {
	r.all = r.all[:0]
	for _, v := range values {
		r.all = append(r.all, v...)
	}
	if r.sorted {
		slices.Sort(r.all)
	} else {
		ctx.Counter("fold", "elements read").Inc(int64(len(r.all)))
	}
	emit(key, r.all)
	return nil
}

var foldReuseKind = Declare(listJob{
	Kind:        "test-fold-reuse",
	NumReducers: 2,
	Mapper:      func() TypedMapper[string, string, string, []uint64] { return &reusingMapper{} },
	Reducer:     func() TypedReducer[string, []uint64, string, []uint64] { return &concatReducer{sorted: true} },
	Combiner:    func() TypedReducer[string, []uint64, string, []uint64] { return &concatReducer{} },
	InputKey:    recordio.RawString{}, InputValue: recordio.RawString{},
	MapKey: recordio.RawString{}, MapValue: recordio.Uint64List{},
	OutputKey: recordio.RawString{}, OutputValue: recordio.Uint64List{},
})

// TestFoldSurvivesAMapperReusingItsValue: values are folded as the
// bytes they were emitted as, so a mapper (or combiner) that writes over
// what it emitted changes nothing: at every budget and on both
// executors the combined output equals the uncombined one.
func TestFoldSurvivesAMapperReusingItsValue(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 1500; i++ {
		fmt.Fprintf(&sb, "%s beta %d\n", strings.Fields(fewKeysLine)[i%7], i)
	}
	run := func(combiner bool, budget int64, external bool) map[string][]uint64 {
		t.Helper()
		e := newTestEngine(t, 4<<10)
		if external {
			e.opts.Executor = storeExecutor{e.fs}
		}
		writeInput(t, e, "in/f", sb.String())
		tj := foldReuseKind
		tj.Name, tj.InputPaths, tj.OutputPath, tj.MaxShuffleBytes = "reuse", []string{"in/f"}, "out", budget
		if !combiner {
			tj.Combiner = nil
		}
		res, err := e.Run(tj.Build())
		if err != nil {
			t.Fatal(err)
		}
		// Without a budget every task's "b" key folds a batch, and its
		// head comes back with the next.
		if combiner && budget == 0 && res.Counters.Value(CounterGroupTask, CounterCombineInput) <= res.Counters.Value(CounterGroupTask, CounterMapOutputRecords) {
			t.Fatal("the combiner never folded its own output")
		}
		out := map[string][]uint64{}
		err = ReadOutput(e, "out", recordio.RawString{}, recordio.Uint64List{}, func(k string, v []uint64) error {
			out[k] = slices.Clone(v)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(false, 0, false)
	if len(want) < 10 {
		t.Fatalf("fixture has %d keys", len(want))
	}
	for _, budget := range []int64{0, 64, 1 << 10} {
		for _, external := range []bool{false, true} {
			if got := run(true, budget, external); !reflect.DeepEqual(got, want) {
				t.Errorf("budget %d, external %v: combined output differs from the uncombined", budget, external)
			}
		}
	}
}

// TestFoldRereadsNoMoreThanWasEmitted: a combiner whose output grows
// with its input — concatenation here, DJ-Cluster's union in the
// pipelines — re-reads its heads at every fold, so a key folds only
// once its pending values outweigh them. One map task emitting 40,000
// values under one key then has the combiner read at most three times
// what was emitted, not the quadratic sum of a fold every 64 values.
func TestFoldRereadsNoMoreThanWasEmitted(t *testing.T) {
	e := newTestEngine(t, 1<<20)
	writeInput(t, e, "in/f", strings.Repeat("bb\n", 40_000))
	tj := foldReuseKind
	tj.Name, tj.InputPaths, tj.OutputPath = "reread", []string{"in/f"}, "out"
	res, err := e.Run(tj.Build())
	if err != nil {
		t.Fatal(err)
	}
	if res.MapTasks != 1 {
		t.Fatalf("%d map tasks, want 1", res.MapTasks)
	}
	emitted := 2 * res.Counters.Value(CounterGroupTask, CounterMapOutputRecords)
	if read := res.Counters.Value("fold", "elements read"); read < emitted || read > 3*emitted {
		t.Fatalf("the combiner read %d list elements of %d emitted, want %d..%d", read, emitted, emitted, 3*emitted)
	}
}

// splitCombiner sums word counts and tests what a combiner may emit:
// each sum as two records under its key, "delta"'s under another key,
// and one record from Cleanup per map attempt.
type splitCombiner struct{ strReducerBase }

func (splitCombiner) Reduce(_ *TaskContext, key string, values []string, emit strEmit) error {
	total := 0
	for _, v := range values {
		n, err := strconv.Atoi(v)
		if err != nil {
			return err
		}
		total += n
	}
	if key == "delta" {
		emit("delta-moved", strconv.Itoa(total))
		return nil
	}
	emit(key, strconv.Itoa(total/2))
	emit(key, strconv.Itoa(total-total/2))
	return nil
}

func (splitCombiner) Cleanup(_ *TaskContext, emit strEmit) error {
	emit("~combiners", "1")
	return nil
}

// TestFoldCombinerMayEmitAnything: a combiner's records under the key
// it folds become the key's heads, wherever many; the rest, and what
// its one Cleanup per attempt emits, go straight to the shuffle. At
// every budget, on both executors, the output is the word count with
// delta renamed and one Cleanup record per map task.
func TestFoldCombinerMayEmitAnything(t *testing.T) {
	for _, budget := range []int64{0, 1, 32, 256} {
		c := shuffleJob{
			seed: 4, text: strings.Repeat(fewKeysLine, 300), chunk: 4 << 10, reducers: 3,
			budget: budget, newCombiner: func() strReducer { return splitCombiner{} },
		}
		out, ok := sameAcrossExecutors(t, c, budget > 0)
		if !ok {
			t.Fatalf("budget %d: executors disagree", budget)
		}
		want := []KV{{"alpha", "600"}, {"beta", "600"}, {"delta-moved", "300"}, {"gamma", "600"}, {"~combiners", strconv.Itoa(out.mapTasks)}}
		if out.mapTasks < 2 || !reflect.DeepEqual(out.kvs, want) {
			t.Errorf("budget %d: output %v from %d map tasks, want %v", budget, out.kvs, out.mapTasks, want)
		}
	}
}

// TestFoldFailuresFailTheAttempt: a combiner error fails the attempt
// and names the combiner, and a key the partitioner sends nowhere fails
// it when the fold first meets the key.
func TestFoldFailuresFailTheAttempt(t *testing.T) {
	for _, budget := range []int64{0, 64} {
		e := newTestEngine(t, 1<<10)
		writeInput(t, e, "in/f", strings.Repeat(fewKeysLine, 20))
		_, err := e.Run(build(strJob{
			Name: "combine-fails", InputPaths: []string{"in/f"}, OutputPath: "out", MaxAttempts: 1,
			Mapper:          func() strMapper { return wordMapper{} },
			Reducer:         func() strReducer { return sumReducer{} },
			Combiner:        func() strReducer { return failOnReducer{key: "gamma"} },
			MaxShuffleBytes: budget,
		}))
		if err == nil || !strings.Contains(err.Error(), `combiner: reducer refuses "gamma"`) {
			t.Errorf("budget %d: err = %v, want the combiner's refusal", budget, err)
		}

		e = newTestEngine(t, 1<<10)
		writeInput(t, e, "in/f", strings.Repeat(fewKeysLine, 20))
		_, err = e.Run(build(strJob{
			Name: "badpart", InputPaths: []string{"in/f"}, OutputPath: "out", NumReducers: 3,
			Mapper:   func() strMapper { return wordMapper{} },
			Reducer:  func() strReducer { return sumReducer{} },
			Combiner: func() strReducer { return sumReducer{} },
			Partition: func(key string, n int) int {
				if key == "gamma" {
					return n
				}
				return 0
			},
			MaxShuffleBytes: budget,
		}))
		if want := `illegal partition 3 for key "gamma" (3 reducers)`; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("budget %d: err = %v, want %q", budget, err, want)
		}
	}
}

// TestFoldAllocatesNothingPerRecord drives a lowered mapper into a
// combining map task: the fold files a record, and the combiner folds
// each batch, with no allocation of their own — the combiner's context
// is bound once per attempt and its values decode into a reused slice.
// Only the arena's blocks allocate, which rounds to nothing per record.
func TestFoldAllocatesNothingPerRecord(t *testing.T) {
	tj := &TypedJob[string, string, int64, int64, int64, int64]{
		Mapper: func() TypedMapper[string, string, int64, int64] {
			return TypedMapFunc[string, string, int64, int64](
				func(_ *TaskContext, _ string, line string, emit TypedEmit[int64, int64]) error {
					emit(int64(len(line)%11), 1)
					return nil
				})
		},
		Combiner: func() TypedReducer[int64, int64, int64, int64] {
			return TypedReduceFunc[int64, int64, int64, int64](
				func(_ *TaskContext, key int64, values []int64, emit TypedEmit[int64, int64]) error {
					var sum int64
					for _, v := range values {
						sum += v
					}
					emit(key, sum)
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
	if in := sp.stats.CombineInputRecords; in < 201*records {
		t.Fatalf("the combiner read %d records of %d emitted", in, 201*records)
	}
}
