package gepeto

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/geolife"
	"repro/internal/rtree"
	"repro/internal/trace"
)

func TestPreprocessSequentialFiltersMovement(t *testing.T) {
	// A trail: 10 stationary traces at P (60s apart), then 10 moving
	// traces at 20 km/h, then 10 stationary at Q.
	p := geo.Point{Lat: 39.9, Lon: 116.4}
	q := geo.Destination(p, 90, 3000)
	var traces []trace.Trace
	ts := time.Unix(1_200_000_000, 0).UTC()
	add := func(pt geo.Point) {
		traces = append(traces, trace.Trace{User: "u", Point: pt, Time: ts})
		ts = ts.Add(time.Minute)
	}
	for i := 0; i < 10; i++ {
		add(geo.Destination(p, float64(i*37), 3)) // 3m jitter
	}
	for i := 1; i <= 10; i++ {
		add(geo.Destination(p, 90, float64(i)*300)) // 300m/min = 18 km/h
	}
	for i := 0; i < 10; i++ {
		add(geo.Destination(q, float64(i*53), 3))
	}
	ds := trace.FromTraces(traces)
	afterSpeed, afterDedup := PreprocessSequential(ds, 2.0, 2.0)

	// Roughly the 20 stationary traces survive (boundary traces have
	// mixed speeds).
	n := afterSpeed.NumTraces()
	if n < 16 || n > 22 {
		t.Fatalf("after speed filter: %d traces, want ~18-20", n)
	}
	// Jitter is 3m > 2m dedup radius, so dedup removes nearly nothing.
	if d := afterDedup.NumTraces(); n-d > 4 {
		t.Fatalf("dedup removed %d traces, want <= 4", n-d)
	}
	// All survivors are near P or Q.
	for _, tr := range afterDedup.Trails {
		for _, tc := range tr.Traces {
			if geo.Haversine(tc.Point, p) > 50 && geo.Haversine(tc.Point, q) > 50 {
				t.Fatalf("moving trace survived: %v", tc.Point)
			}
		}
	}
}

func TestPreprocessMRMatchesSequentialTableIV(t *testing.T) {
	// Run the Fig. 5 pipeline on a 1-min-sampled dataset and compare
	// stage counts with the sequential reference (Table IV workflow).
	h := newHarness(t, 3, 20_000, 1<<10) // large chunks: no boundary effects
	sampled := SampleSequential(h.ds, time.Minute, SampleUpperLimit)
	if err := geolife.WriteRecords(h.e.FS(), "sampled", sampled); err != nil {
		t.Fatal(err)
	}
	sampled, err := geolife.ReadRecords(h.e.FS(), "sampled")
	if err != nil {
		t.Fatal(err)
	}

	_, errRun := h.e.RunPipeline(
		SpeedFilterJob("speed", []string{"sampled"}, "stage1", 2.0),
		DedupJob("dedup", []string{"stage1"}, "stage2", 1.0),
	)
	if errRun != nil {
		t.Fatal(errRun)
	}
	gotSpeed := h.tracesOf(t, "stage1")
	gotDedup := h.tracesOf(t, "stage2")
	wantSpeed, wantDedup := PreprocessSequential(sampled, 2.0, 1.0)

	if g, w := gotSpeed.NumTraces(), wantSpeed.NumTraces(); g != w {
		t.Fatalf("speed filter: MR %d vs sequential %d", g, w)
	}
	if g, w := gotDedup.NumTraces(), wantDedup.NumTraces(); g != w {
		t.Fatalf("dedup: MR %d vs sequential %d", g, w)
	}

	// Table IV shape: the speed filter keeps ~55-62%, dedup almost all.
	keep := float64(gotSpeed.NumTraces()) / float64(sampled.NumTraces())
	if keep < 0.40 || keep > 0.80 {
		t.Errorf("speed filter kept %.0f%%, outside [40%%,80%%] (paper: 55.7%%)", keep*100)
	}
	dedupKeep := float64(gotDedup.NumTraces()) / float64(gotSpeed.NumTraces())
	if dedupKeep < 0.95 {
		t.Errorf("dedup kept %.1f%%, want >= 95%% (paper: 99.2%%)", dedupKeep*100)
	}
}

func TestDJClusterSequentialFindsPOIs(t *testing.T) {
	// Cluster a single user's preprocessed, sampled trail; clusters
	// must coincide with the user's true POIs.
	ds, truth := geolife.GenerateWithTruth(geolife.Config{Users: 1, TotalTraces: 12_000, Seed: 21})
	sampled := SampleSequential(ds, time.Minute, SampleUpperLimit)
	_, pre := PreprocessSequential(sampled, 2.0, 2.0)

	res := DJClusterSequential(pre, DefaultDJClusterOptions())
	if len(res.Clusters) == 0 {
		t.Fatal("no clusters found")
	}
	user := ds.Trails[0].User
	pois := truth.POIs(user)
	// Each big cluster must sit within 50 m of some true POI.
	for _, c := range res.Clusters {
		if len(c.Members) < 10 {
			continue
		}
		best := 1e12
		for _, p := range pois {
			if d := geo.Haversine(c.Centroid, p); d < best {
				best = d
			}
		}
		if best > 50 {
			t.Errorf("cluster %s (%d members) centroid %.0fm from nearest POI", c.ID, len(c.Members), best)
		}
	}
	// Home and work must be recovered by some cluster.
	for _, target := range []geo.Point{truth.Homes[user], truth.Works[user]} {
		found := false
		for _, c := range res.Clusters {
			if geo.Haversine(c.Centroid, target) < 50 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no cluster within 50m of POI %v", target)
		}
	}
}

// sampledCorpus writes a one-minute sample of the harness corpus to
// "sampled" and returns it as read back.
func sampledCorpus(t *testing.T, h *testHarness) *trace.Dataset {
	t.Helper()
	sampled := SampleSequential(h.ds, time.Minute, SampleUpperLimit)
	if err := geolife.WriteRecords(h.e.FS(), "sampled", sampled); err != nil {
		t.Fatal(err)
	}
	sampled, err := geolife.ReadRecords(h.e.FS(), "sampled")
	if err != nil {
		t.Fatal(err)
	}
	return sampled
}

// sameClusters reports the first difference between two cluster
// lists — ID, User, Members or the bits of Centroid — or "".
func sameClusters(got, want []Cluster) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d clusters, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.ID != w.ID || g.User != w.User || !slices.Equal(g.Members, w.Members) ||
			math.Float64bits(g.Centroid.Lat) != math.Float64bits(w.Centroid.Lat) ||
			math.Float64bits(g.Centroid.Lon) != math.Float64bits(w.Centroid.Lon) {
			return fmt.Sprintf("cluster %d: %s/%s/%d members/%v, want %s/%s/%d members/%v",
				i, g.ID, g.User, len(g.Members), g.Centroid, w.ID, w.User, len(w.Members), w.Centroid)
		}
	}
	return ""
}

// TestDJClusterMRMatchesSequential checks that the MapReduce
// DJ-Cluster returns exactly the sequential reference's clusters —
// names, owners, members and centroid bits — and noise, both per user
// (one reducer per user group) and globally (one reducer).
func TestDJClusterMRMatchesSequential(t *testing.T) {
	for _, perUser := range []bool{true, false} {
		t.Run(fmt.Sprintf("PerUser=%v", perUser), func(t *testing.T) {
			h := newHarness(t, 2, 14_000, 256)
			// Sample first so the R-tree and neighborhoods stay small.
			sampled := sampledCorpus(t, h)
			opts := DefaultDJClusterOptions()
			opts.PerUser = perUser
			// Dense enough a bound that some traces are noise.
			opts.MinPts = 8
			mr, err := DJClusterMR(h.e, []string{"sampled"}, "djwork", opts)
			if err != nil {
				t.Fatal(err)
			}
			_, pre := PreprocessSequential(sampled, opts.MaxSpeedKmh, opts.DupRadiusMeters)
			seq := DJClusterSequential(pre, opts)

			if len(seq.Clusters) == 0 || seq.Noise == 0 {
				t.Fatalf("sequential run found %d clusters and %d noise traces: nothing to compare", len(seq.Clusters), seq.Noise)
			}
			t.Logf("%d clusters, %d noise traces", len(seq.Clusters), seq.Noise)
			if diff := sameClusters(mr.Clusters, seq.Clusters); diff != "" {
				t.Fatalf("MR vs sequential: %s", diff)
			}
			if mr.Noise != seq.Noise {
				t.Fatalf("noise differs: MR %d vs seq %d", mr.Noise, seq.Noise)
			}
			// Pipeline stage counts must be consistent.
			if mr.AfterDedup != int64(pre.NumTraces()) {
				t.Fatalf("AfterDedup = %d, sequential %d", mr.AfterDedup, pre.NumTraces())
			}
			// The merge runs one reducer per R-tree partition per user,
			// one reducer otherwise.
			wantReducers := 1
			if perUser {
				wantReducers = h.e.Cluster().TotalSlots()
			}
			if jr := mr.JobResults[len(mr.JobResults)-1]; jr.ReduceTasks != wantReducers {
				t.Fatalf("neighborhood job ran %d reducers, want %d", jr.ReduceTasks, wantReducers)
			}
		})
	}
}

// TestDJClusterMRUserWithColon clusters a corpus whose user names hold
// ':' — the separator of a TraceID — and the same corpus under plain
// names: both must find the same clusters.
func TestDJClusterMRUserWithColon(t *testing.T) {
	h := newHarness(t, 2, 10_000, 256)
	plain := sampledCorpus(t, h)
	colon := &trace.Dataset{}
	for _, tr := range plain.Trails {
		renamed := trace.Trail{User: "team:" + tr.User}
		for _, tc := range tr.Traces {
			tc.User = renamed.User
			renamed.Traces = append(renamed.Traces, tc)
		}
		colon.Trails = append(colon.Trails, renamed)
	}
	if err := geolife.WriteRecords(h.e.FS(), "colon", colon); err != nil {
		t.Fatal(err)
	}
	opts := DefaultDJClusterOptions()
	want, err := DJClusterMR(h.e, []string{"sampled"}, "djplain", opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DJClusterMR(h.e, []string{"colon"}, "djcolon", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Clusters) == 0 {
		t.Fatal("no clusters on the plain corpus: nothing to compare")
	}
	for i := range got.Clusters {
		c := &got.Clusters[i]
		c.User = strings.TrimPrefix(c.User, "team:")
		for j, m := range c.Members {
			c.Members[j] = strings.TrimPrefix(m, "team:")
		}
	}
	if diff := sameClusters(got.Clusters, want.Clusters); diff != "" {
		t.Fatalf("users with ':' vs plain: %s", diff)
	}
	if got.Noise != want.Noise {
		t.Fatalf("noise: %d with ':' in user names, %d without", got.Noise, want.Noise)
	}
}

// TestNeighborhoodJobRejectsBadPerUser runs the neighborhood job with
// a malformed djcluster.peruser: the attempt must fail, not fall back
// to global clustering.
func TestNeighborhoodJobRejectsBadPerUser(t *testing.T) {
	h := newHarness(t, 2, 2_000, 256)
	var entries []rtree.Entry
	for _, tr := range h.ds.Trails {
		for _, tc := range tr.Traces {
			entries = append(entries, rtree.Entry{ID: TraceID(tc), Point: tc.Point})
		}
	}
	ntj := neighborhoodKind
	ntj.Name = "djcluster-neighborhood"
	ntj.InputPaths = []string{h.input}
	ntj.OutputPath = "clusters"
	ntj.NumReducers = 1
	ntj.MaxAttempts = 1
	ntj.Conf = map[string]string{confPerUser: "yes"}
	ntj.Cache = map[string][]byte{cacheRTree: rtree.Codec{}.Append(nil, rtree.BulkLoad(entries, rtree.DefaultMaxEntries))}
	_, err := h.e.Run(ntj.Build())
	if err == nil || !strings.Contains(err.Error(), confPerUser) {
		t.Fatalf("job with %s=yes: err = %v, want a parse error", confPerUser, err)
	}
}

// TestMergeReducerMatchesCombinedMerge checks the merge is
// associative as the job uses it: merging the components of a split
// input gives the components of the whole input.
func TestMergeReducerMatchesCombinedMerge(t *testing.T) {
	hoods := [][]uint32{{1, 5}, {5, 9}, {2}, {3, 4}, {40, 41, 1000}, {4, 7}, {9, 12}, {1000}, {2, 6}}
	merge := func(sets [][]uint32) [][]uint32 {
		var out [][]uint32
		err := (&mergeReducer{}).Reduce(nil, "k", sets, func(k string, c []uint32) {
			if k != "k" {
				t.Fatalf("merge emitted key %q", k)
			}
			out = append(out, slices.Clone(c))
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := [][]uint32{{1, 5, 9, 12}, {2, 6}, {3, 4, 7}, {40, 41, 1000}}
	if got := merge(hoods); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("merge = %v, want %v", got, want)
	}
	combined := append(merge(hoods[:4]), merge(hoods[4:])...)
	if got := merge(combined); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("merge of combined = %v, want %v", got, want)
	}
	if err := (&mergeReducer{}).Reduce(nil, "k", [][]uint32{{1}, {}}, func(string, []uint32) {}); err == nil {
		t.Fatal("empty neighborhood: want an error")
	}
}

// BenchmarkDJClusterMerge times the merge reducer over the recorded
// per-user neighborhoods of the test corpus, one Reduce per user, as
// the neighborhood job's reducers run it without a combiner.
func BenchmarkDJClusterMerge(b *testing.B) {
	ds := geolife.Generate(geolife.Config{Users: 4, TotalTraces: 40_000, Seed: 11})
	sampled := SampleSequential(ds, time.Minute, SampleUpperLimit)
	opts := DefaultDJClusterOptions()
	_, pre := PreprocessSequential(sampled, opts.MaxSpeedKmh, opts.DupRadiusMeters)
	var entries []rtree.Entry
	for _, tr := range pre.Trails {
		for _, tc := range tr.Traces {
			entries = append(entries, rtree.Entry{ID: TraceID(tc), Point: tc.Point})
		}
	}
	tree := rtree.BulkLoad(entries, rtree.DefaultMaxEntries)
	ix := indexUsers(tree.All())
	groups := make([][][]uint32, len(ix.users))
	refs := 0
	for o, e := range tree.All() {
		if hood := ix.neighborhood(nil, tree, e.Point, opts.RadiusMeters, ix.user[o]); len(hood) >= opts.MinPts {
			groups[ix.user[o]] = append(groups[ix.user[o]], hood)
			refs += len(hood)
		}
	}
	r := &mergeReducer{}
	emit := func(string, []uint32) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range groups {
			if err := r.Reduce(nil, "u", g, emit); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(refs), "ordinals/op")
}

func TestDJClusterMRInvariants(t *testing.T) {
	h := newHarness(t, 2, 10_000, 256)
	sampledCorpus(t, h)
	opts := DefaultDJClusterOptions()
	res, err := DJClusterMR(h.e, []string{"sampled"}, "djwork", opts)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{}
	for _, c := range res.Clusters {
		// Paper: clusters contain at least MinPts traces...
		if len(c.Members) < opts.MinPts {
			t.Errorf("cluster %s has %d members < MinPts %d", c.ID, len(c.Members), opts.MinPts)
		}
		// ...and are non-overlapping.
		for _, m := range c.Members {
			if prev, dup := seen[m]; dup {
				t.Fatalf("trace %s in clusters %s and %s", m, prev, c.ID)
			}
			seen[m] = c.ID
		}
		// Per-user clustering: one user per cluster.
		for _, m := range c.Members {
			if UserOfTraceID(m) != c.User {
				t.Fatalf("cluster %s (user %s) contains trace of %s", c.ID, c.User, UserOfTraceID(m))
			}
		}
	}
	// Noise count must be consistent: noise traces are those whose own
	// neighborhood was under-dense; they may still appear inside other
	// traces' clusters, so only a weak bound holds.
	if res.Noise < 0 || res.Noise > res.AfterDedup {
		t.Errorf("noise = %d outside [0, %d]", res.Noise, res.AfterDedup)
	}
	if len(res.JobResults) < 5 {
		t.Errorf("expected >=5 job results (2 preprocess + 2 rtree + 1 cluster), got %d", len(res.JobResults))
	}
}

func TestDJClusterOptionsDefaults(t *testing.T) {
	o := DJClusterOptions{}.withDefaults()
	if o.RadiusMeters != 25 || o.MinPts != 4 || o.MaxSpeedKmh != 2 || o.DupRadiusMeters != 1 {
		t.Fatalf("defaults = %+v", o)
	}
	if DefaultDJClusterOptions().PerUser != true {
		t.Fatal("DefaultDJClusterOptions must be per-user")
	}
}

func TestDJClusterGlobalModeFindsSharedHotspot(t *testing.T) {
	// PerUser=false clusters across users: a location visited by two
	// different users becomes one citywide hotspot cluster.
	hotspot := geo.Point{Lat: 39.92, Lon: 116.42}
	var traces []trace.Trace
	base := time.Unix(1_207_000_000, 0).UTC()
	for u, user := range []string{"a", "b"} {
		for i := 0; i < 10; i++ {
			traces = append(traces, trace.Trace{
				User:  user,
				Point: geo.Destination(hotspot, float64(i*37+u*91), 5),
				Time:  base.Add(time.Duration(u*3600+i*60) * time.Second),
			})
		}
	}
	ds := trace.FromTraces(traces)

	perUser := DJClusterSequential(ds, DJClusterOptions{PerUser: true}.withDefaults())
	global := DJClusterSequential(ds, DJClusterOptions{PerUser: false}.withDefaults())

	if len(perUser.Clusters) != 2 {
		t.Fatalf("per-user clusters = %d, want 2 (one per user)", len(perUser.Clusters))
	}
	if len(global.Clusters) != 1 {
		t.Fatalf("global clusters = %d, want 1 shared hotspot", len(global.Clusters))
	}
	if got := len(global.Clusters[0].Members); got != 20 {
		t.Fatalf("hotspot cluster has %d members, want 20", got)
	}
	if global.Clusters[0].User != "" {
		t.Fatalf("global cluster should have no owner, got %q", global.Clusters[0].User)
	}
}

// TestDJClusterSharedTraceIDIsOneMember clusters two far-apart places
// whose only link is a pair of traces recorded in the same second — one
// TraceID. Like equal ID strings, the pair is one member, and it
// joins the two places into one cluster.
func TestDJClusterSharedTraceIDIsOneMember(t *testing.T) {
	a := geo.Point{Lat: 39.92, Lon: 116.42}
	b := geo.Destination(a, 90, 5000)
	base := time.Unix(1_207_000_000, 0).UTC()
	var traces []trace.Trace
	for i := 0; i < 5; i++ {
		traces = append(traces,
			trace.Trace{User: "u", Point: geo.Destination(a, float64(i*71), 4), Time: base.Add(time.Duration(i) * time.Minute)},
			trace.Trace{User: "u", Point: geo.Destination(b, float64(i*71), 4), Time: base.Add(time.Duration(i+10) * time.Minute)})
	}
	shared := base.Add(time.Hour)
	traces = append(traces,
		trace.Trace{User: "u", Point: a, Time: shared},
		trace.Trace{User: "u", Point: b, Time: shared})
	res := DJClusterSequential(trace.FromTraces(traces), DefaultDJClusterOptions())
	if len(res.Clusters) != 1 {
		t.Fatalf("%d clusters, want the two places joined into 1", len(res.Clusters))
	}
	c := res.Clusters[0]
	if len(c.Members) != 11 || !slices.IsSorted(c.Members) || len(slices.Compact(slices.Clone(c.Members))) != 11 {
		t.Fatalf("members %v, want 11 distinct IDs in order", c.Members)
	}
	if c.ID != "cluster-0000" || c.User != "u" {
		t.Fatalf("cluster %s of %q, want cluster-0000 of u", c.ID, c.User)
	}
}
