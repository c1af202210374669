package gepeto

import (
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/mapreduce"
	"repro/internal/recordio"
)

func TestKMeansSequentialBasic(t *testing.T) {
	// Three tight blobs -> k=3 must find their centers.
	var pts []geo.Point
	centers := []geo.Point{
		{Lat: 39.90, Lon: 116.40},
		{Lat: 39.95, Lon: 116.30},
		{Lat: 40.00, Lon: 116.50},
	}
	for _, c := range centers {
		for i := 0; i < 50; i++ {
			pts = append(pts, geo.Destination(c, float64(i*7%360), float64(i%20)))
		}
	}
	// k-means is sensitive to the random initial centers (the paper
	// notes it can be trapped in a local minimum): with uniform random
	// init, all three blobs get an initial centroid only ~23% of the
	// time. Run several seeds and require at least two recoveries.
	good := 0
	var res *KMeansResult
	for seed := int64(0); seed < 10; seed++ {
		r := KMeansSequential(pts, KMeansOptions{K: 3, Distance: geo.MetricSquaredEuclidean, Seed: seed})
		if !r.Converged || len(r.Centroids) != 3 {
			continue
		}
		ok := true
		for _, c := range centers {
			best := math.Inf(1)
			for _, got := range r.Centroids {
				if d := geo.Haversine(c, got); d < best {
					best = d
				}
			}
			if best > 30 {
				ok = false
			}
		}
		if ok {
			good++
			if res == nil {
				res = r
			}
		}
	}
	if good < 2 {
		t.Fatalf("only %d/10 seeds recovered the true centers", good)
	}
	total := 0
	for _, s := range res.Sizes {
		total += s
	}
	if total != len(pts) {
		t.Fatalf("sizes sum to %d, want %d", total, len(pts))
	}
}

func TestKMeansSequentialFewerPointsThanK(t *testing.T) {
	res := KMeansSequential([]geo.Point{{Lat: 1, Lon: 1}}, KMeansOptions{K: 5})
	if len(res.Centroids) != 0 || res.Iterations != 0 {
		t.Fatal("expected empty result for n < k")
	}
}

func TestKMeansSequentialDeterministic(t *testing.T) {
	var pts []geo.Point
	for i := 0; i < 200; i++ {
		pts = append(pts, geo.Destination(geo.Point{Lat: 39.9, Lon: 116.4}, float64(i), float64(i%500)))
	}
	a := KMeansSequential(pts, KMeansOptions{K: 4, Seed: 9})
	b := KMeansSequential(pts, KMeansOptions{K: 4, Seed: 9})
	for i := range a.Centroids {
		if a.Centroids[i] != b.Centroids[i] {
			t.Fatal("same seed produced different centroids")
		}
	}
}

func TestKMeansMRMatchesSequential(t *testing.T) {
	h := newHarness(t, 3, 12_000, 64)
	opts := KMeansOptions{K: 5, Distance: geo.MetricSquaredEuclidean, MaxIter: 30, Seed: 17}

	mr, err := KMeansMR(h.e, []string{h.input}, "kmeans-work", opts)
	if err != nil {
		t.Fatal(err)
	}
	var pts []geo.Point
	for _, tr := range h.ds.Trails {
		for _, tc := range tr.Traces {
			pts = append(pts, tc.Point)
		}
	}
	seq := KMeansSequential(pts, opts)

	if mr.Iterations != seq.Iterations {
		t.Logf("note: iterations differ (MR %d vs seq %d); comparing centroids anyway", mr.Iterations, seq.Iterations)
	}
	if len(mr.Centroids) != len(seq.Centroids) {
		t.Fatalf("centroid counts differ: %d vs %d", len(mr.Centroids), len(seq.Centroids))
	}
	a := append([]geo.Point(nil), mr.Centroids...)
	b := append([]geo.Point(nil), seq.Centroids...)
	SortPointsByLat(a)
	SortPointsByLat(b)
	for i := range a {
		if d := geo.Haversine(a[i], b[i]); d > 5 {
			t.Errorf("centroid %d differs by %.1fm: %v vs %v", i, d, a[i], b[i])
		}
	}
}

func TestKMeansMRCombinerEquivalence(t *testing.T) {
	h1 := newHarness(t, 2, 8_000, 64)
	h2 := newHarness(t, 2, 8_000, 64)
	base := KMeansOptions{K: 4, Distance: geo.MetricSquaredEuclidean, MaxIter: 15, Seed: 5}
	noComb, err := KMeansMR(h1.e, []string{h1.input}, "w", base)
	if err != nil {
		t.Fatal(err)
	}
	withCombOpts := base
	withCombOpts.UseCombiner = true
	withComb, err := KMeansMR(h2.e, []string{h2.input}, "w", withCombOpts)
	if err != nil {
		t.Fatal(err)
	}
	// Same centroids (within float tolerance)...
	a := append([]geo.Point(nil), noComb.Centroids...)
	b := append([]geo.Point(nil), withComb.Centroids...)
	SortPointsByLat(a)
	SortPointsByLat(b)
	for i := range a {
		if d := geo.Haversine(a[i], b[i]); d > 1 {
			t.Errorf("centroid %d moved %.2fm with combiner", i, d)
		}
	}
	// ...but less shuffle traffic (the §VI combiner optimisation).
	s1 := noComb.IterationResults[0].Counters.Value(mapreduce.CounterGroupShuffle, mapreduce.CounterShuffleBytes)
	s2 := withComb.IterationResults[0].Counters.Value(mapreduce.CounterGroupShuffle, mapreduce.CounterShuffleBytes)
	if s2 >= s1 {
		t.Fatalf("combiner did not cut shuffle bytes: %d vs %d", s2, s1)
	}
	if ratio := float64(s1) / float64(s2); ratio < 10 {
		t.Errorf("combiner shuffle reduction only %.1fx, expected >=10x", ratio)
	}
}

// TestKMeansMRCombinerPrecision is the regression test for the
// combiner precision bug: the old text codec rendered map output at
// %.6f and combiner output at %f, so enabling the combiner quantised
// the partial sums and drifted the centroids. With raw float64 sums
// the two paths differ only in summation order, and because the driver
// quantises the averaged centroid to record precision, combiner-on and
// combiner-off runs must agree to 1e-12 degrees (in practice exactly).
func TestKMeansMRCombinerPrecision(t *testing.T) {
	h1 := newHarness(t, 2, 8_000, 64)
	h2 := newHarness(t, 2, 8_000, 64)
	base := KMeansOptions{K: 4, Distance: geo.MetricSquaredEuclidean, MaxIter: 10, Seed: 5}
	noComb, err := KMeansMR(h1.e, []string{h1.input}, "w", base)
	if err != nil {
		t.Fatal(err)
	}
	withCombOpts := base
	withCombOpts.UseCombiner = true
	withComb, err := KMeansMR(h2.e, []string{h2.input}, "w", withCombOpts)
	if err != nil {
		t.Fatal(err)
	}
	if noComb.Iterations != withComb.Iterations {
		t.Errorf("iterations diverged: %d without combiner, %d with", noComb.Iterations, withComb.Iterations)
	}
	if len(noComb.Centroids) != len(withComb.Centroids) {
		t.Fatalf("centroid counts diverged: %d vs %d", len(noComb.Centroids), len(withComb.Centroids))
	}
	const tol = 1e-12
	for i := range noComb.Centroids {
		a, b := noComb.Centroids[i], withComb.Centroids[i]
		if math.Abs(a.Lat-b.Lat) > tol || math.Abs(a.Lon-b.Lon) > tol {
			t.Errorf("centroid %d: combiner off %v vs on %v, want agreement to %g", i, a, b, tol)
		}
	}
	for i := range noComb.Sizes {
		if noComb.Sizes[i] != withComb.Sizes[i] {
			t.Errorf("cluster %d size: %d without combiner, %d with", i, noComb.Sizes[i], withComb.Sizes[i])
		}
	}
}

func TestKMeansMRHaversineDistance(t *testing.T) {
	h := newHarness(t, 2, 6_000, 64)
	res, err := KMeansMR(h.e, []string{h.input}, "w", KMeansOptions{
		K: 3, Distance: geo.MetricHaversine, MaxIter: 20, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 3 {
		t.Fatalf("centroids = %d", len(res.Centroids))
	}
	for _, c := range res.Centroids {
		if !c.Valid() {
			t.Fatalf("invalid centroid %v", c)
		}
	}
}

func TestKMeansMRConvergesAndCleansUp(t *testing.T) {
	h := newHarness(t, 2, 5_000, 64)
	res, err := KMeansMR(h.e, []string{h.input}, "w", KMeansOptions{K: 3, MaxIter: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge in %d iterations", res.Iterations)
	}
	if res.Iterations != len(res.IterationResults) {
		t.Fatal("iteration count mismatch")
	}
	// Intermediate cluster directories must have been deleted.
	if files := h.e.FS().List("w"); len(files) != 0 {
		t.Fatalf("workdir not cleaned: %v", files)
	}
}

func TestKMeansMRTooFewPoints(t *testing.T) {
	h := newHarness(t, 1, 5, 64)
	_, err := KMeansMR(h.e, []string{h.input}, "w", KMeansOptions{K: 50})
	if err == nil {
		t.Fatal("want error when dataset smaller than k")
	}
}

func TestKMeansAssignments(t *testing.T) {
	h := newHarness(t, 2, 4_000, 64)
	opts := KMeansOptions{K: 4, MaxIter: 20, Seed: 3}
	res, err := KMeansMR(h.e, []string{h.input}, "w", opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := KMeansAssignments(h.e, []string{h.input}, "assign", res.Centroids, opts.Distance); err != nil {
		t.Fatal(err)
	}
	counts := map[int64]int{}
	assigned := 0
	err = mapreduce.ReadOutput(h.e, "assign", recordio.Int64{}, recordio.RawString{}, func(idx int64, _ string) error {
		counts[idx]++
		assigned++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if assigned != h.ds.NumTraces() {
		t.Fatalf("assignments = %d, want %d", assigned, h.ds.NumTraces())
	}
	// Sizes report the assignment of the last iteration's input
	// centroids, while KMeansAssignments uses the post-update ones;
	// after convergence (centroid movement <= 10 m) the two may differ
	// by a handful of boundary traces.
	for i, size := range res.Sizes {
		got := counts[int64(i)]
		if diff := got - size; size > 0 && (diff > size/20+5 || diff < -size/20-5) {
			t.Errorf("cluster %d: assignment count %d far from size %d", i, got, size)
		}
	}
}

func TestCentroidMarshalRoundTrip(t *testing.T) {
	cs := []geo.Point{{Lat: 39.9, Lon: 116.4}, {Lat: 40.0, Lon: 116.5}}
	back, err := unmarshalCentroids(marshalCentroids(cs))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0] != cs[0] || back[1] != cs[1] {
		t.Fatalf("round-trip = %v", back)
	}
	for _, bad := range []string{"junk", "0\tnocomma", "9\t1,2"} {
		if _, err := unmarshalCentroids([]byte(bad)); err == nil {
			t.Errorf("unmarshalCentroids(%q): want error", bad)
		}
	}
}

func TestReducersFor(t *testing.T) {
	h := newHarness(t, 1, 100, 1<<20) // 6 nodes x 2 slots = 12 slots
	if got := reducersFor(h.e, 5); got != 5 {
		t.Fatalf("k < slots: %d, want 5", got)
	}
	if got := reducersFor(h.e, 50); got != 12 {
		t.Fatalf("k > slots: %d, want 12", got)
	}
}

func TestKMeansPlusPlusBeatsUniformInit(t *testing.T) {
	// Three separated blobs: ++-seeding recovers all three centers far
	// more reliably than uniform random seeding (the §VI sensitivity).
	var pts []geo.Point
	centers := []geo.Point{
		{Lat: 39.90, Lon: 116.40},
		{Lat: 39.95, Lon: 116.30},
		{Lat: 40.00, Lon: 116.50},
	}
	for _, c := range centers {
		for i := 0; i < 50; i++ {
			pts = append(pts, geo.Destination(c, float64(i*7%360), float64(i%20)))
		}
	}
	recovered := func(res *KMeansResult) bool {
		for _, c := range centers {
			best := math.Inf(1)
			for _, got := range res.Centroids {
				if d := geo.Haversine(c, got); d < best {
					best = d
				}
			}
			if best > 30 {
				return false
			}
		}
		return true
	}
	uniformWins, ppWins := 0, 0
	for seed := int64(0); seed < 20; seed++ {
		if recovered(KMeansSequential(pts, KMeansOptions{K: 3, Seed: seed})) {
			uniformWins++
		}
		if recovered(KMeansPlusPlusSequential(pts, KMeansOptions{K: 3, Seed: seed})) {
			ppWins++
		}
	}
	if ppWins < 18 {
		t.Errorf("++-seeding recovered centers only %d/20 times", ppWins)
	}
	if ppWins <= uniformWins {
		t.Errorf("++-seeding (%d/20) not better than uniform (%d/20)", ppWins, uniformWins)
	}
}

func TestKMeansMRPlusPlusInit(t *testing.T) {
	h := newHarness(t, 2, 6_000, 64)
	res, err := KMeansMR(h.e, []string{h.input}, "w", KMeansOptions{
		K: 4, MaxIter: 25, Seed: 3, PlusPlusInit: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 4 {
		t.Fatalf("centroids = %d", len(res.Centroids))
	}
	if !res.Converged {
		t.Fatalf("did not converge in %d iterations", res.Iterations)
	}
}

func TestPlusPlusCentersEdgeCases(t *testing.T) {
	if _, err := plusPlusCenters([]geo.Point{{Lat: 1, Lon: 1}}, 3, 1, geo.MetricSquaredEuclidean); err == nil {
		t.Fatal("n < k should error")
	}
	// All identical points: falls back to uniform picks, still returns k.
	same := make([]geo.Point, 10)
	for i := range same {
		same[i] = geo.Point{Lat: 39.9, Lon: 116.4}
	}
	cs, err := plusPlusCenters(same, 3, 1, geo.MetricSquaredEuclidean)
	if err != nil || len(cs) != 3 {
		t.Fatalf("identical points: %v, %v", cs, err)
	}
}
