package gepeto

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/geo"
	"repro/internal/recordio"
	"repro/internal/rtree"
)

func TestBuildRTreeMRIndexesEverything(t *testing.T) {
	for _, curve := range []string{"zorder", "hilbert"} {
		h := newHarness(t, 2, 4_000, 64)
		tree, results, err := BuildRTreeMR(h.e, []string{h.input}, "rtw-"+curve, RTreeBuildOptions{
			Curve: curve, Partitions: 4, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if tree.Len() != h.ds.NumTraces() {
			t.Fatalf("%s: tree has %d entries, want %d", curve, tree.Len(), h.ds.NumTraces())
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", curve, err)
		}
		if len(results) != 2 {
			t.Fatalf("%s: %d job results, want 2", curve, len(results))
		}
		// Phase 2 used the requested number of reducers.
		if results[1].ReduceTasks != 4 {
			t.Fatalf("%s: phase 2 ran %d reducers, want 4", curve, results[1].ReduceTasks)
		}
	}
}

func TestBuildRTreeMRMatchesSequentialQueries(t *testing.T) {
	h := newHarness(t, 2, 5_000, 128)
	mrTree, _, err := BuildRTreeMR(h.e, []string{h.input}, "rtw", RTreeBuildOptions{Partitions: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Sequential reference: bulk-load everything directly.
	var entries []rtree.Entry
	for _, tr := range h.ds.Trails {
		for _, tc := range tr.Traces {
			entries = append(entries, rtree.Entry{ID: TraceID(tc), Point: tc.Point})
		}
	}
	seqTree := rtree.BulkLoad(entries, rtree.DefaultMaxEntries)

	centers := []geo.Point{
		h.ds.Trails[0].Traces[0].Point,
		h.ds.Trails[1].Traces[100].Point,
		{Lat: 39.9, Lon: 116.4},
	}
	for _, c := range centers {
		for _, radius := range []float64{25, 100, 1000} {
			got := idsOfEntries(mrTree.Within(c, radius))
			want := idsOfEntries(seqTree.Within(c, radius))
			if len(got) != len(want) {
				t.Fatalf("Within(%v, %v): MR %d vs seq %d", c, radius, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("Within(%v, %v): result %d: %s vs %s", c, radius, i, got[i], want[i])
				}
			}
		}
	}
}

func idsOfEntries(es []rtree.Entry) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.ID
	}
	sort.Strings(out)
	return out
}

func TestBuildRTreeMRPartitionBalance(t *testing.T) {
	// The partitioning function "should yield equally-sized partitions";
	// with sampled boundaries, partitions must be within a reasonable
	// factor of each other.
	h := newHarness(t, 3, 9_000, 128)
	const parts = 6
	_, results, err := BuildRTreeMR(h.e, []string{h.input}, "rtw", RTreeBuildOptions{
		Partitions: parts, Curve: "hilbert", Seed: 5, SamplePerChunk: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Phase-2 reduce groups = partitions actually populated.
	groups := results[1].Counters.Value("task", "reduce_input_groups")
	if groups != parts {
		t.Fatalf("populated partitions = %d, want %d", groups, parts)
	}
	total := results[1].Counters.Value("rtree", "subtree_entries")
	if total != int64(h.ds.NumTraces()) {
		t.Fatalf("subtree entries = %d, want %d", total, h.ds.NumTraces())
	}
}

func TestBuildRTreeMRSinglePartition(t *testing.T) {
	h := newHarness(t, 1, 1_000, 1<<20)
	tree, _, err := BuildRTreeMR(h.e, []string{h.input}, "rtw", RTreeBuildOptions{Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 1_000 {
		t.Fatalf("tree has %d entries", tree.Len())
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildRTreeMRDefaultOptions(t *testing.T) {
	h := newHarness(t, 1, 500, 1<<20)
	opts := RTreeBuildOptions{}.withDefaults(h.e)
	if opts.Curve != "zorder" || opts.Partitions != h.e.Cluster().TotalSlots() ||
		opts.SamplePerChunk != 200 || opts.FanOut != rtree.DefaultMaxEntries {
		t.Fatalf("defaults = %+v", opts)
	}
}

// TestParseSubtreeErrors plants one phase-2 part file per case and
// reads it back the way phase 3 does.
func TestParseSubtreeErrors(t *testing.T) {
	h := newHarness(t, 1, 10, 64)
	enc := string((recordio.IDPointList{}).Append(nil, []recordio.IDPoint{
		{ID: "u1:100", P: geo.Point{Lat: 39.9, Lon: 116.4}},
		{ID: "u2:200", P: geo.Point{Lat: 40.0, Lon: 116.5}},
	}))
	empty := string((recordio.IDPointList{}).Append(nil, nil))
	for i, tc := range []struct {
		name  string
		value string
		size  int // -1: the read must fail
	}{
		{"truncated encoding", enc[:len(enc)-1], -1},
		{"trailing bytes", enc + "\x00", -1},
		{"valid subtree", enc, 2},
		{"empty subtree", empty, 0},
	} {
		dir := fmt.Sprintf("phase2-%d", i)
		w := recordio.NewWriter()
		w.Add(string((recordio.Int64{}).Append(nil, 0)), tc.value)
		if err := h.e.FS().Create(dir+"/part-r-00000", w.Bytes(), ""); err != nil {
			t.Fatal(err)
		}
		trees, err := readSubtrees(h.e, dir, 8)
		switch {
		case tc.size < 0 && err == nil:
			t.Errorf("%s: want an error", tc.name)
		case tc.size >= 0 && (err != nil || len(trees) != 1 || trees[0].Len() != tc.size):
			t.Errorf("%s: trees=%d err=%v, want one of %d entries", tc.name, len(trees), err, tc.size)
		}
	}
}
