package trace

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/recordio"
)

// wordCount is a declared word count: text lines in, (word, 1) pairs
// through the shuffle, one (word, count) record per word out.
var wordCount = mapreduce.Declare(mapreduce.TypedJob[string, string, string, int64, string, int64]{
	Kind: "trace-test/wordcount",
	Mapper: func() mapreduce.TypedMapper[string, string, string, int64] {
		return mapreduce.TypedMapFunc[string, string, string, int64](
			func(_ *mapreduce.TaskContext, _, line string, emit mapreduce.TypedEmit[string, int64]) error {
				for _, w := range strings.Fields(line) {
					emit(w, 1)
				}
				return nil
			})
	},
	Reducer: func() mapreduce.TypedReducer[string, int64, string, int64] {
		return mapreduce.TypedReduceFunc[string, int64, string, int64](
			func(_ *mapreduce.TaskContext, word string, counts []int64, emit mapreduce.TypedEmit[string, int64]) error {
				var n int64
				for _, c := range counts {
					n += c
				}
				emit(word, n)
				return nil
			})
	},
	InputKey:    recordio.RawString{},
	InputValue:  recordio.RawString{},
	MapKey:      recordio.RawString{},
	MapValue:    recordio.Int64{},
	OutputKey:   recordio.RawString{},
	OutputValue: recordio.Int64{},
})

// TestEngineTracePhaseSumMatchesWall runs a real engine job through
// the collector and checks the acceptance criterion end to end: the
// critical path's per-phase durations sum to within 5% of the job's
// recorded wall-clock (by construction they sum exactly to the span
// wall; the 5% headroom covers event-stamping jitter against
// Result.Wall), and the Chrome export round-trips the schema.
func TestEngineTracePhaseSumMatchesWall(t *testing.T) {
	c, err := cluster.NewUniform(4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := dfs.New(c, dfs.Config{ChunkSize: 1 << 10, Replication: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector(NewStore(fs), 0)
	e := mapreduce.NewEngine(c, fs, mapreduce.Options{Obs: obs.NewBus(col)})
	if err := fs.Create("in/text", []byte(strings.Repeat("the quick brown fox jumps over the lazy dog\n", 200)), ""); err != nil {
		t.Fatal(err)
	}
	job := wordCount
	job.Name, job.InputPaths, job.OutputPath, job.NumReducers = "wordcount", []string{"in"}, "out", 3
	res, err := e.Run(job.Build())
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int64{}
	err = mapreduce.ReadOutput(e, "out", recordio.RawString{}, recordio.Int64{}, func(w string, n int64) error {
		counts[w] = n
		return nil
	})
	if err != nil || len(counts) != 8 || counts["the"] != 400 {
		t.Fatalf("word counts %v, %v; want 8 words, the=400", counts, err)
	}

	tr, ok := col.Find("wordcount")
	if !ok {
		t.Fatal("collector did not finalize the job tree")
	}
	a := AnalyzeTree(tr, Options{})
	if len(a.Jobs) != 1 {
		t.Fatalf("analyzed jobs: %d", len(a.Jobs))
	}
	ja := a.Jobs[0]
	var sum int64
	for _, pc := range ja.Phases {
		sum += pc.DurUs
	}
	wall := res.Wall.Microseconds()
	if wall <= 0 {
		t.Fatal("job recorded no wall time")
	}
	diff := sum - wall
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.05*float64(wall) {
		t.Errorf("phase durations sum to %dµs, recorded wall %dµs (off by %.1f%%, want ≤5%%)",
			sum, wall, 100*float64(diff)/float64(wall))
	}

	// The shuffle span carries one PartStat per reducer, and the skew
	// pass sees all the records.
	if ja.Skew == nil || ja.Skew.Partitions != 3 {
		t.Fatalf("skew report: %+v", ja.Skew)
	}
	if ja.Skew.TotalBytes != res.Counters.Value(mapreduce.CounterGroupShuffle, mapreduce.CounterShuffleBytes) {
		t.Errorf("skew bytes = %d, want shuffle_bytes counter", ja.Skew.TotalBytes)
	}

	// The persisted tree is findable and the Chrome export validates.
	st := NewStore(fs)
	stored, ok := st.Find("wordcount")
	if !ok {
		t.Fatal("tree not persisted to the store")
	}
	data, err := EncodeChrome(stored)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeChrome(data); err != nil {
		t.Errorf("persisted tree's chrome export invalid: %v", err)
	}
}
