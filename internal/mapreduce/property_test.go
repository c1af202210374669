package mapreduce

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/dfs"
)

// seqWordCount is the single-machine reference for the MR wordcount.
func seqWordCount(text string) map[string]int {
	out := map[string]int{}
	for _, line := range strings.Split(text, "\n") {
		for _, w := range strings.Fields(line) {
			out[w]++
		}
	}
	return out
}

// randText builds line-oriented text from a bounded alphabet so keys
// collide across chunks (exercising the shuffle).
func randText(rng *rand.Rand) string {
	words := []string{"alpha", "beta", "gamma", "delta", "x", "yy", "zzz"}
	var sb strings.Builder
	lines := 1 + rng.Intn(60)
	for i := 0; i < lines; i++ {
		n := rng.Intn(8)
		for j := 0; j < n; j++ {
			sb.WriteString(words[rng.Intn(len(words))])
			sb.WriteByte(' ')
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestPropertyMapReduceEqualsSequential drives random inputs, random
// chunk sizes and random reducer counts through the engine and checks
// the result against the sequential reference — the core correctness
// property of the whole MapReduce substrate.
func TestPropertyMapReduceEqualsSequential(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	f := func(seed int64, chunkRaw uint8, reducersRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		text := randText(rng)
		chunk := int64(chunkRaw)%200 + 5
		reducers := int(reducersRaw)%5 + 1

		c, err := cluster.NewUniform(4, 2, 2)
		if err != nil {
			return false
		}
		fs, err := dfs.New(c, dfs.Config{ChunkSize: chunk, Replication: 3, Seed: seed})
		if err != nil {
			return false
		}
		e := NewEngine(c, fs, Options{})
		if err := fs.Create("in/f", []byte(text), ""); err != nil {
			return false
		}
		_, err = e.Run(build(strJob{
			Name:        "prop-wordcount",
			InputPaths:  []string{"in/f"},
			OutputPath:  "out",
			Mapper:      func() strMapper { return wordMapper{} },
			Reducer:     func() strReducer { return sumReducer{} },
			Combiner:    func() strReducer { return sumReducer{} },
			NumReducers: reducers,
		}))
		if err != nil {
			t.Logf("seed=%d chunk=%d reducers=%d: %v", seed, chunk, reducers, err)
			return false
		}
		kvs, err := readKVs(e, "out")
		if err != nil {
			return false
		}
		got := map[string]int{}
		for _, kv := range kvs {
			n, err := strconv.Atoi(kv.Value)
			if err != nil {
				return false
			}
			got[kv.Key] = n
		}
		want := seqWordCount(text)
		if len(got) != len(want) {
			t.Logf("seed=%d chunk=%d reducers=%d: %d keys, want %d", seed, chunk, reducers, len(got), len(want))
			return false
		}
		for k, v := range want {
			if got[k] != v {
				t.Logf("seed=%d: key %q = %d, want %d", seed, k, got[k], v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentJobsOnOneEngine runs several jobs in parallel on the
// same engine/DFS — the multi-tenant behaviour a shared Hadoop cluster
// provides.
func TestConcurrentJobsOnOneEngine(t *testing.T) {
	e := newTestEngine(t, 64)
	const jobs = 6
	for i := 0; i < jobs; i++ {
		writeInput(t, e, fmt.Sprintf("in%d/f", i), strings.Repeat(fmt.Sprintf("word%d filler\n", i), 30))
	}
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := e.Run(build(strJob{
				Name:       fmt.Sprintf("job-%d", i),
				InputPaths: []string{fmt.Sprintf("in%d/f", i)},
				OutputPath: fmt.Sprintf("out%d", i),
				Mapper:     func() strMapper { return wordMapper{} },
				Reducer:    func() strReducer { return sumReducer{} },
			}))
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		kvs, err := readKVs(e, fmt.Sprintf("out%d", i))
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]string{}
		for _, kv := range kvs {
			got[kv.Key] = kv.Value
		}
		if got[fmt.Sprintf("word%d", i)] != "30" || got["filler"] != "30" {
			t.Fatalf("job %d wrong output: %v", i, got)
		}
	}
}

// TestPropertySamplingPipelineComposition checks that running the
// engine's pipeline twice (filter then identity) preserves record
// counts — the part-file format must be losslessly re-consumable.
func TestPropertySamplingPipelineComposition(t *testing.T) {
	cfg := &quick.Config{MaxCount: 10}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		text := randText(rng)
		e := newTestEngineQuick(seed)
		if e == nil {
			return false
		}
		if err := e.FS().Create("in/f", []byte(text), ""); err != nil {
			return false
		}
		tokenize := func() strMapper {
			return strMapFunc(func(_ *TaskContext, _, line string, emit strEmit) error {
				for _, w := range strings.Fields(line) {
					emit(w, "1")
				}
				return nil
			})
		}
		identity := func() strMapper {
			return strMapFunc(func(_ *TaskContext, k, v string, emit strEmit) error {
				emit(k, v)
				return nil
			})
		}
		if _, err := e.RunPipeline(
			build(strJob{Name: "p1", InputPaths: []string{"in/f"}, OutputPath: "s1", Mapper: tokenize}),
			build(strJob{Name: "p2", InputPaths: []string{"s1"}, OutputPath: "s2", Mapper: identity}),
		); err != nil {
			return false
		}
		k1, err := readKVs(e, "s1")
		if err != nil {
			return false
		}
		k2, err := readKVs(e, "s2")
		if err != nil {
			return false
		}
		return reflect.DeepEqual(k1, k2)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMergeShuffleEqualsSeedShuffle asserts the sort-based
// shuffle's core equivalence: merging the per-map stable-sorted runs
// yields, kv for kv, exactly what the seed shuffle produced by
// concatenating the unsorted runs and stable-sorting the whole
// partition. Runs are random in count, length (including empty) and
// key skew.
func TestPropertyMergeShuffleEqualsSeedShuffle(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100}
	f := func(seed int64, runsRaw, keysRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		numRuns := int(runsRaw)%12 + 1
		keySpace := int(keysRaw)%20 + 1
		runs := make([][]KV, numRuns)
		seq := 0
		for i := range runs {
			n := rng.Intn(50)
			for j := 0; j < n; j++ {
				runs[i] = append(runs[i], KV{
					Key:   fmt.Sprintf("key-%03d", rng.Intn(keySpace)),
					Value: fmt.Sprintf("val-%05d", seq),
				})
				seq++
			}
		}
		want := seedShuffle(runs)
		sorted := make([][]KV, len(runs))
		for i, r := range runs {
			sorted[i] = append([]KV(nil), r...)
			sortKVs(sorted[i])
		}
		got := MergeRuns(sorted)
		if len(got) != len(want) {
			t.Logf("seed=%d: merged %d records, want %d", seed, len(got), len(want))
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				t.Logf("seed=%d: record %d = %v, want %v", seed, i, got[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func newTestEngineQuick(seed int64) *Engine {
	c, err := cluster.NewUniform(4, 2, 2)
	if err != nil {
		return nil
	}
	fs, err := dfs.New(c, dfs.Config{ChunkSize: 100, Replication: 3, Seed: seed})
	if err != nil {
		return nil
	}
	return NewEngine(c, fs, Options{})
}
