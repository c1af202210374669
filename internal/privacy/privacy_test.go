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

// attackPipeline runs sample → preprocess → DJ-Cluster → POI
// extraction sequentially over a dataset.
func attackPipeline(t *testing.T, ds *trace.Dataset) []POI {
	t.Helper()
	sampled := gepeto.SampleSequential(ds, time.Minute, gepeto.SampleUpperLimit)
	_, pre := gepeto.PreprocessSequential(sampled, 2.0, 1.0)
	res := gepeto.DJClusterSequential(pre, gepeto.DefaultDJClusterOptions())
	pois, err := ExtractPOIs(res)
	if err != nil {
		t.Fatal(err)
	}
	return pois
}

func genTruth(t *testing.T, users, traces int, seed int64) (*trace.Dataset, *geolife.GroundTruth) {
	t.Helper()
	return geolife.GenerateWithTruth(geolife.Config{Users: users, TotalTraces: traces, Seed: seed})
}

func TestPOIAttackRecoversHomeAndWork(t *testing.T) {
	ds, truth := genTruth(t, 4, 40_000, 31)
	pois := attackPipeline(t, ds)
	rep := EvaluatePOIAttack(pois, truth, 50)
	if rep.Users != 4 {
		t.Fatalf("attacked %d users, want 4", rep.Users)
	}
	if rep.HomeRecovered < 3 {
		t.Errorf("home recovered for %d/4 users", rep.HomeRecovered)
	}
	if rep.WorkRecovered < 3 {
		t.Errorf("work recovered for %d/4 users", rep.WorkRecovered)
	}
	if rep.POIPrecision < 0.8 {
		t.Errorf("POI precision %.2f < 0.8", rep.POIPrecision)
	}
	if rep.POIRecall < 0.5 {
		t.Errorf("POI recall %.2f < 0.5", rep.POIRecall)
	}
	if rep.HomeRecovered > 0 && (rep.MeanHomeErrorMeters <= 0 || rep.MeanHomeErrorMeters > 50) {
		t.Errorf("mean home error %.1fm", rep.MeanHomeErrorMeters)
	}
}

func TestExtractPOIsLabeling(t *testing.T) {
	// Build a synthetic cluster result directly: one cluster visited
	// at night, one during weekday working hours.
	night := time.Date(2008, 4, 7, 23, 30, 0, 0, time.UTC) // Monday night
	day := time.Date(2008, 4, 8, 10, 0, 0, 0, time.UTC)    // Tuesday morning
	var homeMembers, workMembers []string
	for i := 0; i < 5; i++ {
		hm := trace.Trace{User: "u", Time: night.Add(time.Duration(i) * time.Minute)}
		wm := trace.Trace{User: "u", Time: day.Add(time.Duration(i) * time.Minute)}
		homeMembers = append(homeMembers, gepeto.TraceID(hm))
		workMembers = append(workMembers, gepeto.TraceID(wm))
	}
	res := &gepeto.DJClusterResult{Clusters: []gepeto.Cluster{
		{ID: "c0", User: "u", Members: homeMembers, Centroid: geo.Point{Lat: 39.9, Lon: 116.4}},
		{ID: "c1", User: "u", Members: workMembers, Centroid: geo.Point{Lat: 39.95, Lon: 116.45}},
	}}
	pois, err := ExtractPOIs(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(pois) != 2 {
		t.Fatalf("%d POIs", len(pois))
	}
	labels := map[POILabel]geo.Point{}
	for _, p := range pois {
		labels[p.Label] = p.Center
	}
	if labels[LabelHome] != (geo.Point{Lat: 39.9, Lon: 116.4}) {
		t.Errorf("home mislabeled: %v", labels)
	}
	if labels[LabelWork] != (geo.Point{Lat: 39.95, Lon: 116.45}) {
		t.Errorf("work mislabeled: %v", labels)
	}
}

func TestExtractPOIsMissingTimestamp(t *testing.T) {
	res := &gepeto.DJClusterResult{Clusters: []gepeto.Cluster{
		{ID: "c0", User: "u", Members: []string{"u:12345", "u:noon"}},
	}}
	if _, err := ExtractPOIs(res); err == nil {
		t.Fatal("want error for a member ID with no timestamp")
	}
}

func TestBuildMMCBasics(t *testing.T) {
	// Trail alternating between two POIs A and B.
	a := geo.Point{Lat: 39.90, Lon: 116.40}
	b := geo.Point{Lat: 39.95, Lon: 116.45}
	tr := &trace.Trail{User: "u"}
	ts := time.Unix(1_200_000_000, 0)
	for i := 0; i < 10; i++ {
		p := a
		if i%2 == 1 {
			p = b
		}
		for j := 0; j < 3; j++ {
			tr.Traces = append(tr.Traces, trace.Trace{User: "u", Point: geo.Destination(p, float64(j*120), 5), Time: ts})
			ts = ts.Add(time.Minute)
		}
	}
	m, err := BuildMMC(tr, []geo.Point{a, b}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if m.Visits[0] != 15 || m.Visits[1] != 15 {
		t.Fatalf("visits = %v", m.Visits)
	}
	// Perfect alternation: P(A->B) = P(B->A) = 1.
	if m.Trans[0][1] != 1 || m.Trans[1][0] != 1 {
		t.Fatalf("transitions = %v", m.Trans)
	}
	next, p, err := m.PredictNext(0)
	if err != nil || next != 1 || p != 1 {
		t.Fatalf("PredictNext(0) = %d, %v, %v", next, p, err)
	}
	if _, _, err := m.PredictNext(99); err == nil {
		t.Fatal("out-of-range state should error")
	}
	pi := m.StationaryDistribution()
	if math.Abs(pi[0]-0.5) > 0.01 || math.Abs(pi[1]-0.5) > 0.01 {
		t.Fatalf("stationary = %v, want ~[0.5 0.5]", pi)
	}
}

func TestBuildMMCNoPOIs(t *testing.T) {
	if _, err := BuildMMC(&trace.Trail{}, nil, 50); err == nil {
		t.Fatal("want error for empty POI set")
	}
}

func TestMMCSelfDistanceSmall(t *testing.T) {
	ds, truth := genTruth(t, 2, 16_000, 33)
	for _, tr := range ds.Trails {
		m1, err := BuildMMC(&tr, truth.POIs(tr.User), 50)
		if err != nil {
			t.Fatal(err)
		}
		if d := m1.Distance(m1); d > 0.05 {
			t.Errorf("self-distance %.3f > 0.05", d)
		}
	}
	// Distance between different users must dominate self-distance.
	m0, _ := BuildMMC(&ds.Trails[0], truth.POIs(ds.Trails[0].User), 50)
	m1, _ := BuildMMC(&ds.Trails[1], truth.POIs(ds.Trails[1].User), 50)
	if d := m0.Distance(m1); d < 0.5 {
		t.Errorf("cross-user distance %.3f < 0.5", d)
	}
}

func TestLinkingAttackDeanonymizes(t *testing.T) {
	// Split each user's trail in half: first half is the "known"
	// dataset, second half the pseudonymised release. The MMC linking
	// attack must re-identify most users (the §VIII attack).
	ds, truth := genTruth(t, 5, 60_000, 35)
	var known, anon []*MMC
	truthMap := map[string]string{}
	for i := range ds.Trails {
		tr := &ds.Trails[i]
		half := len(tr.Traces) / 2
		first := &trace.Trail{User: tr.User, Traces: tr.Traces[:half]}
		second := &trace.Trail{User: "anon-" + tr.User, Traces: tr.Traces[half:]}
		pois := truth.POIs(tr.User)
		k, err := BuildMMC(first, pois, 50)
		if err != nil {
			t.Fatal(err)
		}
		// The adversary does not know the anon user's POIs a priori;
		// model them with the union of all users' POIs.
		var allPOIs []geo.Point
		for _, u := range ds.Trails {
			allPOIs = append(allPOIs, truth.POIs(u.User)...)
		}
		a, err := BuildMMC(second, allPOIs, 50)
		if err != nil {
			t.Fatal(err)
		}
		known = append(known, k)
		anon = append(anon, a)
		truthMap[a.User] = tr.User
	}
	res := LinkByMMC(known, anon, truthMap)
	if res.Total != 5 {
		t.Fatalf("attacked %d trails", res.Total)
	}
	if res.Accuracy() < 0.8 {
		t.Errorf("linking accuracy %.2f < 0.8 (matches: %v)", res.Accuracy(), res.Matches)
	}
}

func TestGaussianMaskDistortsButPreservesStructure(t *testing.T) {
	ds, _ := genTruth(t, 2, 5_000, 37)
	mask := GaussianMask{SigmaMeters: 100, Seed: 1}
	out := mask.Sanitize(ds)
	if out.NumTraces() != ds.NumTraces() {
		t.Fatal("mask must not drop traces")
	}
	rep := MeasureUtility(ds, out)
	if rep.Retention != 1 {
		t.Fatalf("retention = %v", rep.Retention)
	}
	if rep.MeanDistortionMeters < 40 || rep.MeanDistortionMeters > 200 {
		t.Fatalf("mean distortion %.1fm, want ~80m", rep.MeanDistortionMeters)
	}
	// Determinism.
	out2 := mask.Sanitize(ds)
	if out2.Trails[0].Traces[0].Point != out.Trails[0].Traces[0].Point {
		t.Fatal("same seed must give same mask")
	}
}

func TestSpatialCloakingSnapsToGrid(t *testing.T) {
	ds, _ := genTruth(t, 1, 2_000, 39)
	cloak := SpatialCloaking{CellMeters: 500}
	out := cloak.Sanitize(ds)
	// Distinct coordinates collapse drastically.
	uniq := map[geo.Point]bool{}
	for _, tr := range out.Trails {
		for _, tc := range tr.Traces {
			uniq[tc.Point] = true
		}
	}
	if len(uniq) > 50 {
		t.Fatalf("%d unique cloaked positions, want few", len(uniq))
	}
	rep := MeasureUtility(ds, out)
	if rep.MeanDistortionMeters <= 0 || rep.MeanDistortionMeters > 500 {
		t.Fatalf("distortion %.1f", rep.MeanDistortionMeters)
	}
	// Same input point always snaps to the same cell.
	p := geo.Point{Lat: 39.9042, Lon: 116.4074}
	if snapToGrid(p, 500) != snapToGrid(p, 500) {
		t.Fatal("snap not deterministic")
	}
}

func TestTemporalAggregation(t *testing.T) {
	ds, _ := genTruth(t, 2, 5_000, 41)
	agg := TemporalAggregation{Window: time.Minute}
	out := agg.Sanitize(ds)
	if out.NumTraces() >= ds.NumTraces()/5 {
		t.Fatalf("aggregation kept %d of %d traces; want strong reduction", out.NumTraces(), ds.NumTraces())
	}
	// One output trace per occupied (user, window).
	for _, tr := range out.Trails {
		seen := map[int64]bool{}
		for _, tc := range tr.Traces {
			w := tc.Time.Unix() / 60
			if seen[w] {
				t.Fatal("two aggregates in one window")
			}
			seen[w] = true
		}
	}
}

func TestMixZonesSuppressAndRepseudonymize(t *testing.T) {
	ds, truth := genTruth(t, 1, 8_000, 43)
	user := ds.Trails[0].User
	// Put a mix zone at the user's home: home visits are suppressed
	// and each pass through splits the trail under a new pseudonym.
	mz := MixZones{Centers: []geo.Point{truth.Homes[user]}, RadiusMeters: 100}
	out := mz.Sanitize(ds)
	if len(out.Trails) <= 1 {
		t.Fatalf("expected multiple pseudonym epochs, got %d trails", len(out.Trails))
	}
	for _, tr := range out.Trails {
		for _, tc := range tr.Traces {
			if geo.Haversine(tc.Point, truth.Homes[user]) <= 100 {
				t.Fatal("trace inside mix zone survived")
			}
			if tc.User == user {
				t.Fatal("raw identity leaked")
			}
		}
	}
	rep := MeasureUtility(ds, out)
	if rep.Retention >= 1 {
		t.Fatal("mix zones must suppress some traces")
	}
}

func TestPseudonymize(t *testing.T) {
	ds, _ := genTruth(t, 3, 900, 45)
	anon, mapping := Pseudonymize(ds, 7)
	if len(mapping) != 3 {
		t.Fatalf("mapping size %d", len(mapping))
	}
	users := map[string]bool{}
	for _, tr := range anon.Trails {
		users[tr.User] = true
		if mapping[tr.User] == "" {
			t.Fatalf("pseudonym %s unmapped", tr.User)
		}
		for _, tc := range tr.Traces {
			if tc.User != tr.User {
				t.Fatal("trace user not pseudonymised")
			}
		}
	}
	if len(users) != 3 {
		t.Fatalf("%d distinct pseudonyms", len(users))
	}
}

func TestSanitizationDegradesPOIAttack(t *testing.T) {
	// The core GEPETO experiment: attack the raw dataset, sanitize,
	// attack again, and verify privacy improved (lower recovery).
	ds, truth := genTruth(t, 3, 30_000, 47)

	before := PrivacyFromAttack(EvaluatePOIAttack(attackPipeline(t, ds), truth, 50))
	if before.HomeRecoveryRate < 0.6 {
		t.Fatalf("attack on raw data too weak (%.2f) for the experiment to be meaningful", before.HomeRecoveryRate)
	}
	// Gaussian masking degrades POI recall monotonically with the
	// noise scale. Home recovery is more robust: the noise is
	// zero-mean, so centroids of surviving clusters stay near the true
	// home — a known weakness of noise masking that GEPETO's
	// attack-then-measure loop exposes.
	prevRecall := before.POIRecall + 0.01
	for _, sigma := range []float64{50, 100, 300} {
		masked := GaussianMask{SigmaMeters: sigma, Seed: 2}.Sanitize(ds)
		rep := PrivacyFromAttack(EvaluatePOIAttack(attackPipeline(t, masked), truth, 50))
		if rep.POIRecall >= prevRecall {
			t.Errorf("sigma=%.0fm: POI recall %.2f did not drop below %.2f", sigma, rep.POIRecall, prevRecall)
		}
		prevRecall = rep.POIRecall
	}
	// Spatial cloaking defeats the attack outright: clusters form at
	// cell centers, far from the true POIs.
	cloaked := SpatialCloaking{CellMeters: 200}.Sanitize(ds)
	rep := PrivacyFromAttack(EvaluatePOIAttack(attackPipeline(t, cloaked), truth, 50))
	if rep.HomeRecoveryRate > 0.34 {
		t.Errorf("200m cloaking left home recovery at %.2f", rep.HomeRecoveryRate)
	}
	if rep.POIRecall > 0.2 {
		t.Errorf("200m cloaking left POI recall at %.2f", rep.POIRecall)
	}
}

func TestMeasureUtilityEmpty(t *testing.T) {
	rep := MeasureUtility(&trace.Dataset{}, &trace.Dataset{})
	if rep.Retention != 0 || rep.MeanDistortionMeters != 0 {
		t.Fatalf("empty report = %+v", rep)
	}
}

func TestAnonymitySetSize(t *testing.T) {
	ds, truth := genTruth(t, 4, 32_000, 49)
	var known, anon []*MMC
	for i := range ds.Trails {
		tr := &ds.Trails[i]
		half := len(tr.Traces) / 2
		pois := truth.POIs(tr.User)
		k, _ := BuildMMC(&trace.Trail{User: tr.User, Traces: tr.Traces[:half]}, pois, 50)
		a, _ := BuildMMC(&trace.Trail{User: "anon-" + tr.User, Traces: tr.Traces[half:]}, pois, 50)
		known = append(known, k)
		anon = append(anon, a)
	}
	size := AnonymitySetSize(known, anon, 1.05)
	// Distinct users' POIs rarely collide: sets should be small.
	if size < 1 || size > 2 {
		t.Errorf("anonymity set size %.2f, want in [1,2]", size)
	}
	if AnonymitySetSize(nil, anon, 2) != 0 {
		t.Error("empty known set should give 0")
	}
}

func TestSanitizerNames(t *testing.T) {
	cases := []struct {
		s    Sanitizer
		want string
	}{
		{GaussianMask{SigmaMeters: 100}, "gaussian-100m"},
		{SpatialCloaking{CellMeters: 200}, "cloak-200m"},
		{TemporalAggregation{Window: time.Minute}, "aggregate-1m0s"},
		{MixZones{Centers: nil, RadiusMeters: 150}, "mixzones-0-150m"},
	}
	for _, c := range cases {
		if got := c.s.Name(); got != c.want {
			t.Errorf("Name = %q, want %q", got, c.want)
		}
	}
}
