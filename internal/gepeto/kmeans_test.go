package gepeto

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/geo"
	"repro/internal/geolife"
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
	sortPointsByLat(a)
	sortPointsByLat(b)
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
	sortPointsByLat(a)
	sortPointsByLat(b)
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

// TestKMeansMRCRLFUpload runs k-means on the same upload with LF and
// CRLF line ends: the driver's seeding pass must read the CRLF file as
// the jobs do, and both runs must land on the same centroids.
func TestKMeansMRCRLFUpload(t *testing.T) {
	h := newHarness(t, 2, 4_000, 1024)
	var lf, crlf strings.Builder
	for _, tr := range h.ds.Trails {
		for _, tc := range tr.Traces {
			lf.WriteString(tc.Record() + "\n")
			crlf.WriteString(tc.Record() + "\r\n")
		}
	}
	fs := h.e.FS()
	if err := fs.Create("lf/all.rec", []byte(lf.String()), ""); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("crlf/all.rec", []byte(crlf.String()), ""); err != nil {
		t.Fatal(err)
	}
	opts := KMeansOptions{K: 4, MaxIter: 5, Seed: 3}
	want, err := KMeansMR(h.e, []string{"lf"}, "w-lf", opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := KMeansMR(h.e, []string{"crlf"}, "w-crlf", opts)
	if err != nil {
		t.Fatalf("CRLF upload: %v", err)
	}
	if !reflect.DeepEqual(got.Centroids, want.Centroids) || !reflect.DeepEqual(got.Sizes, want.Sizes) {
		t.Fatalf("CRLF centroids %v sizes %v, LF %v %v", got.Centroids, got.Sizes, want.Centroids, want.Sizes)
	}
}

func TestKMeansMRTooFewPoints(t *testing.T) {
	h := newHarness(t, 1, 5, 64)
	_, err := KMeansMR(h.e, []string{h.input}, "w", KMeansOptions{K: 50})
	if want := "kmeans init: dataset has 5 traces, need at least k=50"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

func TestCentroidMarshalRoundTrip(t *testing.T) {
	// Full-precision coordinates come back bit for bit: the blob
	// carries the centroids unrounded.
	cs := []geo.Point{{Lat: 39.9, Lon: 116.4}, {Lat: 40.000000123456789, Lon: -116.50000000000001}}
	back, err := decodeCentroids(centroidsBlob(cs))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0] != cs[0] || back[1] != cs[1] {
		t.Fatalf("round-trip = %v", back)
	}
}

func TestUnmarshalCentroidsRejects(t *testing.T) {
	good := centroidsBlob([]geo.Point{{Lat: 1, Lon: 1}, {Lat: 2, Lon: 2}})
	for _, tc := range []struct {
		name string
		blob []byte
	}{
		{"empty", nil},
		{"short", good[:15]},
		{"ragged", good[:len(good)-1]},
		{"one point and a byte", good[:17]},
		{"latitude out of range", centroidsBlob([]geo.Point{{Lat: 1, Lon: 1}, {Lat: 91, Lon: 2}})},
		{"longitude out of range", centroidsBlob([]geo.Point{{Lat: 1, Lon: -181}})},
		{"NaN", centroidsBlob([]geo.Point{{Lat: math.NaN(), Lon: 1}})},
		{"infinity", centroidsBlob([]geo.Point{{Lat: 1, Lon: math.Inf(1)}})},
	} {
		if cs, err := decodeCentroids(tc.blob); err == nil {
			t.Errorf("%s: decodeCentroids(%x) = %v, want error", tc.name, tc.blob, cs)
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
	if _, err := plusPlusCenters([]geo.Point{{Lat: 1, Lon: 1}}, 3, 1); err == nil {
		t.Fatal("n < k should error")
	}
	// All identical points: falls back to uniform picks, still returns k.
	same := make([]geo.Point, 10)
	for i := range same {
		same[i] = geo.Point{Lat: 39.9, Lon: 116.4}
	}
	cs, err := plusPlusCenters(same, 3, 1)
	if err != nil || len(cs) != 3 {
		t.Fatalf("identical points: %v, %v", cs, err)
	}
}

// sortPointsByLat orders points south-to-north, so centroid sets from
// two runs can be compared pairwise.
func sortPointsByLat(ps []geo.Point) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Lat != ps[j].Lat {
			return ps[i].Lat < ps[j].Lat
		}
		return ps[i].Lon < ps[j].Lon
	})
}

// allFileExecutor runs every attempt through the worker-side entry
// point, on the job a worker rebuilds from its wire form, against the
// engine's own file system: an RPC worker minus the transport, so every
// run is a file.
type allFileExecutor struct{ fs *dfs.FileSystem }

func (x allFileExecutor) External() bool { return true }

func (x allFileExecutor) RunTask(_ context.Context, spec mapreduce.TaskSpec) (mapreduce.TaskResult, error) {
	wire, err := spec.Job.Wire()
	if err != nil {
		return mapreduce.TaskResult{}, err
	}
	if spec.Job, err = wire.Materialize(); err != nil {
		return mapreduce.TaskResult{}, err
	}
	return mapreduce.ExecuteTask(x.fs, spec)
}

// The FNV-1a digests TestFoldKeepsKMeansBits computes, as the in-buffer
// combine (the combiner run over each 1 MiB of sorted map output)
// produced them: of the final centroids' Float64bits, and of one
// iteration's unrounded partial sums per chunk size (the reduce side
// adds map outputs in task order, so those depend on the split). The
// emit-time fold must keep every bit.
const kmeansCentroidDigest = 0x31d7d9943c29fbfc

var kmeansSumDigest = map[int64]uint64{64 << 10: 0xb504c466949454f0, 4 << 20: 0x26deef267cddc728}

// TestFoldKeepsKMeansBits: the combiner folds each key's partial sums
// left to right in emission order, heads first, so wherever its batches
// and arena flushes fall — no budget, 4 KiB, 64 KiB; in-process or
// all-file — the sums and the centroids are the same bits.
func TestFoldKeepsKMeansBits(t *testing.T) {
	ds := geolife.Generate(geolife.Config{Users: 3, TotalTraces: 40_000, Seed: 23})
	for _, chunk := range []int64{64 << 10, 4 << 20} {
		for _, budget := range []int64{0, 4 << 10, 64 << 10} {
			for _, external := range []bool{false, true} {
				c, err := cluster.NewUniform(4, 2, 2)
				if err != nil {
					t.Fatal(err)
				}
				fs, err := dfs.New(c, dfs.Config{ChunkSize: chunk, Replication: 3, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				var opts mapreduce.Options
				if external {
					opts.Executor = allFileExecutor{fs}
				}
				e := mapreduce.NewEngine(c, fs, opts)
				if err := geolife.WriteRecords(fs, "in", ds); err != nil {
					t.Fatal(err)
				}
				res, err := KMeansMR(e, []string{"in"}, "w", KMeansOptions{
					K: 11, Distance: geo.MetricSquaredEuclidean, MaxIter: 3, ConvergenceDelta: 1e-12,
					Seed: 5, UseCombiner: true, MaxShuffleBytes: budget,
				})
				if err != nil {
					t.Fatal(err)
				}
				h := fnv.New64a()
				for _, p := range res.Centroids {
					h.Write(binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, math.Float64bits(p.Lat)), math.Float64bits(p.Lon)))
				}
				if got := h.Sum64(); got != kmeansCentroidDigest {
					t.Errorf("chunk %d, budget %d, external %v: centroid digest %#x, want %#x", chunk, budget, external, got, uint64(kmeansCentroidDigest))
				}

				tj := kmeansIterKind
				tj.Name, tj.InputPaths, tj.OutputPath, tj.NumReducers = "sums", []string{"in"}, "sums", reducersFor(e, 11)
				tj.Conf = map[string]string{confKMeansDistance: geo.MetricSquaredEuclidean.String()}
				tj.Cache = map[string][]byte{cacheCentroids: centroidsBlob(res.Centroids)}
				tj.MaxShuffleBytes = budget
				if _, err := e.Run(tj.Build()); err != nil {
					t.Fatal(err)
				}
				h.Reset()
				err = mapreduce.ReadOutput(e, "sums", recordio.Int64{}, recordio.PointSumCodec{}, func(i int64, s recordio.PointSum) error {
					for _, u := range []uint64{uint64(i), math.Float64bits(s.LatSum), math.Float64bits(s.LonSum), uint64(s.N)} {
						h.Write(binary.BigEndian.AppendUint64(nil, u))
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if got := h.Sum64(); got != kmeansSumDigest[chunk] {
					t.Errorf("chunk %d, budget %d, external %v: partial-sum digest %#x, want %#x", chunk, budget, external, got, kmeansSumDigest[chunk])
				}
			}
		}
	}
}
