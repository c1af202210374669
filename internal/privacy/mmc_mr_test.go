package privacy

import (
	"math"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/geolife"
	"repro/internal/gepeto"
	"repro/internal/trace"
)

func TestMMCMarshalRoundTrip(t *testing.T) {
	orig := &MMC{
		User:   "u7",
		States: []geo.Point{{Lat: 39.9, Lon: 116.4}, {Lat: 39.95, Lon: 116.45}},
		Visits: []int{10, 5},
		Trans:  [][]float64{{0.25, 0.75}, {1, 0}},
	}
	back, err := UnmarshalMMC(MarshalMMC(orig))
	if err != nil {
		t.Fatal(err)
	}
	if back.User != orig.User || len(back.States) != 2 {
		t.Fatalf("round-trip = %+v", back)
	}
	for i := range orig.States {
		if back.States[i] != orig.States[i] || back.Visits[i] != orig.Visits[i] {
			t.Fatalf("state %d mismatch", i)
		}
		for j := range orig.Trans[i] {
			if math.Abs(back.Trans[i][j]-orig.Trans[i][j]) > 1e-9 {
				t.Fatalf("trans %d,%d mismatch", i, j)
			}
		}
	}
}

func TestMMCMarshalEmpty(t *testing.T) {
	back, err := UnmarshalMMC(MarshalMMC(&MMC{User: "lonely"}))
	if err != nil {
		t.Fatal(err)
	}
	if back.User != "lonely" || len(back.States) != 0 {
		t.Fatalf("empty round-trip = %+v", back)
	}
}

func TestUnmarshalMMCErrors(t *testing.T) {
	bad := []string{
		"",
		"u|a,b",                   // 2 sections
		"u|xx|1|1",                // bad state
		"u|1,2|x|1",               // bad visit
		"u|1,2|1|zz",              // bad transition
		"u|1,2;3,4|1|1",           // dimension mismatch
		"u|1,2;3,4|1,2|0.5,0.5;1", // ragged matrix
	}
	for _, s := range bad {
		if _, err := UnmarshalMMC(s); err == nil {
			t.Errorf("UnmarshalMMC(%q): want error", s)
		}
	}
}

func TestUserPOIsRoundTrip(t *testing.T) {
	in := map[string][]geo.Point{
		"a": {{Lat: 39.9, Lon: 116.4}},
		"b": {{Lat: 40.0, Lon: 116.5}, {Lat: 40.1, Lon: 116.6}},
	}
	back, err := UnmarshalUserPOIs(MarshalUserPOIs(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || len(back["b"]) != 2 || back["a"][0] != in["a"][0] {
		t.Fatalf("round-trip = %+v", back)
	}
	if _, err := UnmarshalUserPOIs([]byte("nota\tpoi;line")); err == nil {
		t.Fatal("want error for bad blob")
	}
}

func TestBuildMMCsMRMatchesSequential(t *testing.T) {
	e, _ := mrHarness(t, 16_000)
	// Preprocess in MR so the DFS holds stationary traces.
	if _, err := e.RunPipeline(); err != nil {
		t.Fatal(err)
	}
	ds, err := geolife.ReadRecords(e.FS(), "in")
	if err != nil {
		t.Fatal(err)
	}
	// Ground-truth POIs via the generator config used by mrHarness.
	_, truth := geolife.GenerateWithTruth(geolife.Config{Users: 2, TotalTraces: 16_000, Seed: 61})
	userPOIs := map[string][]geo.Point{}
	for _, tr := range ds.Trails {
		userPOIs[tr.User] = truth.POIs(tr.User)
	}

	mrChains, res, err := BuildMMCsMR(e, []string{"in"}, "mmcs", userPOIs, 50)
	if err != nil {
		t.Fatal(err)
	}
	// The distributed cache serializes POIs at 1e-6-degree precision;
	// compare the sequential build against the same rounded POIs.
	userPOIs, err = UnmarshalUserPOIs(MarshalUserPOIs(userPOIs))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Counters.Value("mmc", "chains_built"); got != 2 {
		t.Fatalf("chains_built = %d", got)
	}
	if len(mrChains) != 2 {
		t.Fatalf("MR built %d chains", len(mrChains))
	}
	for i := range ds.Trails {
		tr := &ds.Trails[i]
		seq, err := BuildMMC(tr, userPOIs[tr.User], 50)
		if err != nil {
			t.Fatal(err)
		}
		mr := mrChains[tr.User]
		if mr == nil {
			t.Fatalf("no MR chain for %s", tr.User)
		}
		if len(mr.States) != len(seq.States) {
			t.Fatalf("user %s: MR %d states vs seq %d", tr.User, len(mr.States), len(seq.States))
		}
		for s := range seq.States {
			if mr.States[s] != seq.States[s] || mr.Visits[s] != seq.Visits[s] {
				t.Fatalf("user %s state %d differs", tr.User, s)
			}
			for j := range seq.Trans[s] {
				if math.Abs(mr.Trans[s][j]-seq.Trans[s][j]) > 1e-6 {
					t.Fatalf("user %s trans %d,%d: MR %v vs seq %v",
						tr.User, s, j, mr.Trans[s][j], seq.Trans[s][j])
				}
			}
		}
		// The distance between the two representations is ~0.
		if d := mr.Distance(seq); d > 0.01 {
			t.Fatalf("user %s: MR-vs-seq MMC distance %v", tr.User, d)
		}
	}
}

func TestBuildMMCsMRUserWithoutPOIs(t *testing.T) {
	e, _ := mrHarness(t, 2000)
	// Only provide POIs for one of the two users.
	ds, _ := geolife.ReadRecords(e.FS(), "in")
	user0 := ds.Trails[0].User
	_, truth := geolife.GenerateWithTruth(geolife.Config{Users: 2, TotalTraces: 2000, Seed: 61})
	chains, res, err := BuildMMCsMR(e, []string{"in"}, "mmcs", map[string][]geo.Point{
		user0: truth.POIs(user0),
	}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(chains) != 1 {
		t.Fatalf("chains = %d, want 1", len(chains))
	}
	if res.Counters.Value("mmc", "users_without_pois") != 1 {
		t.Fatal("missing-POI user not counted")
	}
}

// TestMMCEndToEndViaDJCluster ties the whole §VIII pipeline together:
// DJ-Cluster extracts POIs per user, BuildMMCsMR learns the chains,
// and the chains support the linking attack.
func TestMMCEndToEndViaDJCluster(t *testing.T) {
	ds, _ := genTruth(t, 3, 30_000, 81)
	sampled := gepetoSample(ds)
	_, pre := gepetoPreprocess(sampled)
	clusters := gepetoCluster(pre)
	pois, err := ExtractPOIs(clusters)
	if err != nil {
		t.Fatal(err)
	}
	userPOIs := map[string][]geo.Point{}
	for _, p := range pois {
		userPOIs[p.User] = append(userPOIs[p.User], p.Center)
	}

	e, _ := mrHarness(t, 100) // fresh engine; we upload our own data
	if err := geolife.WriteRecords(e.FS(), "pre", pre); err != nil {
		t.Fatal(err)
	}
	chains, _, err := BuildMMCsMR(e, []string{"pre"}, "mmcs", userPOIs, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(chains) != 3 {
		t.Fatalf("chains = %d", len(chains))
	}
	for u, m := range chains {
		if len(m.States) < 2 {
			t.Errorf("user %s: chain has %d states", u, len(m.States))
		}
		pi := m.StationaryDistribution()
		var sum float64
		for _, p := range pi {
			sum += p
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Errorf("user %s: stationary distribution sums to %v", u, sum)
		}
	}
}

// Small wrappers keep the end-to-end test readable without importing
// gepeto under aliased names everywhere.
func gepetoSample(ds *trace.Dataset) *trace.Dataset {
	return sampleOneMinute(ds)
}

func sampleOneMinute(ds *trace.Dataset) *trace.Dataset {
	return gepeto.SampleSequential(ds, time.Minute, gepeto.SampleUpperLimit)
}

func gepetoPreprocess(ds *trace.Dataset) (*trace.Dataset, *trace.Dataset) {
	return gepeto.PreprocessSequential(ds, 2.0, 1.0)
}

func gepetoCluster(ds *trace.Dataset) *gepeto.DJClusterResult {
	return gepeto.DJClusterSequential(ds, gepeto.DefaultDJClusterOptions())
}
