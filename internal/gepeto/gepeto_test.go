package gepeto

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/geolife"
	"repro/internal/mapreduce"
	"repro/internal/trace"
)

// testHarness bundles an engine plus an uploaded synthetic dataset.
type testHarness struct {
	e     *mapreduce.Engine
	ds    *trace.Dataset
	truth *geolife.GroundTruth
	input string
}

// newHarness spins up a 6-node cluster with a chunk size small enough
// to yield several map tasks, generates a dataset and uploads it. The
// dataset is round-tripped through the record format so in-memory and
// DFS coordinates match exactly.
func newHarness(t *testing.T, users, traces int, chunkKB int64) *testHarness {
	t.Helper()
	c, err := cluster.NewUniform(6, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := dfs.New(c, dfs.Config{ChunkSize: chunkKB * 1024, Replication: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := mapreduce.NewEngine(c, fs, mapreduce.Options{})
	ds, truth := geolife.GenerateWithTruth(geolife.Config{Users: users, TotalTraces: traces, Seed: 11})
	if err := geolife.WriteRecords(fs, "geolife", ds); err != nil {
		t.Fatal(err)
	}
	// Read back so float precision matches the stored records.
	ds, err = geolife.ReadRecords(fs, "geolife")
	if err != nil {
		t.Fatal(err)
	}
	return &testHarness{e: e, ds: ds, truth: truth, input: "geolife"}
}

// tracesOf reads a job output directory back into a dataset.
func (h *testHarness) tracesOf(t *testing.T, dir string) *trace.Dataset {
	t.Helper()
	ds, err := geolife.ReadRecords(h.e.FS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestTraceIDRoundTrip(t *testing.T) {
	ds := geolife.Generate(geolife.Config{Users: 2, TotalTraces: 100, Seed: 1})
	for _, tr := range ds.Trails {
		for _, tc := range tr.Traces {
			id := TraceID(tc)
			if UserOfTraceID(id) != tc.User {
				t.Fatalf("UserOfTraceID(%q) = %q, want %q", id, UserOfTraceID(id), tc.User)
			}
			ts, err := TimeOfTraceID(id)
			if err != nil || !ts.Equal(tc.Time) || ts.Location() != time.UTC {
				t.Fatalf("TimeOfTraceID(%q) = %v, %v, want %v", id, ts, err, tc.Time)
			}
		}
	}
	// A user name may itself contain ':'; the time follows the last one.
	if ts, err := TimeOfTraceID("a:b:1207008000"); err != nil || ts.Unix() != 1207008000 {
		t.Fatalf("TimeOfTraceID(a:b:...) = %v, %v", ts, err)
	}
	if u := UserOfTraceID("a:b:1207008000"); u != "a:b" {
		t.Fatalf("UserOfTraceID(a:b:...) = %q, want a:b", u)
	}
	for _, id := range []string{"", "u", "u:", "u:x", "u:1.5"} {
		if _, err := TimeOfTraceID(id); err == nil {
			t.Errorf("TimeOfTraceID(%q): want error", id)
		}
	}
}
