package gepeto

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dfs"
	"repro/internal/geo"
	"repro/internal/geolife"
	"repro/internal/mapreduce"
	"repro/internal/recordio"
	"repro/internal/trace"
)

// KMeansOptions carries the runtime arguments of the MapReduced
// k-means (paper Table II): the number of clusters, the distance
// metric, the convergence delta and the iteration cap, plus engine
// knobs (combiner, seed).
type KMeansOptions struct {
	// K is the number of clusters (paper experiments use k=11).
	K int
	// Distance is the metric used for the assignment step; the paper
	// compares squared Euclidean and Haversine.
	Distance geo.Metric
	// ConvergenceDelta stops iterating when no centroid moves by more
	// than this many degrees (paper uses 0.5 with k=11... in degree
	// space; default 1e-4 ≈ 10 m).
	ConvergenceDelta float64
	// MaxIter caps the number of iterations (paper uses 150).
	MaxIter int
	// UseCombiner enables the map-side partial-sum combiner described
	// in §VI (Related work): partial sums are computed before the
	// reducers start, cutting the shuffle volume.
	UseCombiner bool
	// PlusPlusInit selects k-means++ seeding instead of uniform random
	// centroids. §VI notes the clustering "is influenced by ... the
	// method for choosing the initial centers"; ++ seeding spreads the
	// initial centroids and sharply reduces the local-minimum traps of
	// uniform seeding.
	PlusPlusInit bool
	// Seed drives the random initial-centroid choice.
	Seed int64
	// Parent is the enclosing observability span, when the clustering
	// runs inside a larger pipeline ("" for a standalone run).
	Parent string
	// MaxShuffleBytes bounds each map task's in-memory shuffle buffer
	// (see mapreduce.Job.MaxShuffleBytes). With UseCombiner it binds on
	// post-combine bytes: a full buffer is combined down to k partial
	// sums per partition, and a task whose buffer ever filled hands its
	// runs over as DFS files. 0 keeps every run in memory.
	MaxShuffleBytes int64
	// CompressSpill DEFLATE-compresses spill run files.
	CompressSpill bool
}

func (o KMeansOptions) withDefaults() KMeansOptions {
	if o.K <= 0 {
		o.K = 11
	}
	if o.ConvergenceDelta <= 0 {
		o.ConvergenceDelta = 1e-4
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 150
	}
	return o
}

// KMeansResult reports a finished clustering.
type KMeansResult struct {
	// Centroids are the final cluster centers.
	Centroids []geo.Point
	// Sizes[i] is the number of traces assigned to centroid i in the
	// final iteration.
	Sizes []int
	// Iterations is the number of MapReduce iterations executed.
	Iterations int
	// Converged reports whether the delta criterion was met (false if
	// MaxIter stopped the loop).
	Converged bool
	// IterationResults holds the per-iteration job results, whose
	// wall times populate Table III.
	IterationResults []*mapreduce.Result
}

const (
	confKMeansDistance = "kmeans.distance"
	cacheCentroids     = "centroids"
)

// KMeansMR runs the MapReduced k-means of §VI over the record files in
// inputPaths: each iteration is one MapReduce job whose map phase
// assigns every mobility trace to the closest centroid and whose
// reduce phase computes the new centroid of each cluster; the driver
// (this function) picks random initial centroids, submits one job per
// iteration with the current centroids in the distributed cache, and
// stops on convergence — the workflow of Fig. 4. Intermediate output
// directories are created under workDir and cleaned up afterwards.
func KMeansMR(e *mapreduce.Engine, inputPaths []string, workDir string, opts KMeansOptions) (res *KMeansResult, err error) {
	opts = opts.withDefaults()
	spanID := "kmeans:" + workDir
	defer span(e, spanID, opts.Parent, fmt.Sprintf("k=%d maxIter=%d", opts.K, opts.MaxIter), &err)()
	var centroids []geo.Point
	if opts.PlusPlusInit {
		var pts []geo.Point
		pts, err = readAllPoints(e.FS(), inputPaths)
		if err == nil {
			centroids, err = plusPlusCenters(pts, opts.K, opts.Seed, opts.Distance)
		}
	} else {
		centroids, err = randomCenters(e.FS(), inputPaths, opts.K, opts.Seed)
	}
	if err != nil {
		return nil, err
	}
	res = &KMeansResult{}
	for iter := 0; iter < opts.MaxIter; iter++ {
		tj := kmeansIterKind
		tj.Name = fmt.Sprintf("kmeans-iter-%03d", iter)
		tj.Parent = spanID
		tj.InputPaths = inputPaths
		tj.OutputPath = fmt.Sprintf("%s/clusters-%03d", workDir, iter)
		tj.NumReducers = reducersFor(e, opts.K)
		tj.Conf = map[string]string{confKMeansDistance: opts.Distance.String()}
		tj.Cache = map[string][]byte{cacheCentroids: marshalCentroids(centroids)}
		tj.MaxShuffleBytes = opts.MaxShuffleBytes
		tj.CompressSpill = opts.CompressSpill
		if !opts.UseCombiner {
			tj.Combiner = nil
		}
		job := tj.Build()
		jr, err := e.Run(job)
		if err != nil {
			return nil, err
		}
		res.IterationResults = append(res.IterationResults, jr)
		res.Iterations++

		next, sizes, err := readCentroids(e, job.OutputPath, centroids)
		if err != nil {
			return nil, err
		}
		if err := e.FS().DeleteDir(job.OutputPath); err != nil {
			return nil, fmt.Errorf("kmeans: clearing iteration output: %v", err)
		}
		moved := maxMovement(centroids, next)
		centroids = next
		res.Sizes = sizes
		if moved <= opts.ConvergenceDelta {
			res.Converged = true
			break
		}
	}
	res.Centroids = centroids
	return res, nil
}

// kmeansIterJob is one k-means iteration in typed form: trace records
// in, (cluster index, partial coordinate sum) intermediates, and one
// aggregated PointSum per cluster out. Cluster indices travel as
// order-preserving int64 encodings and partial sums as raw float64
// bits — the combiner no longer loses precision to decimal rendering.
type kmeansIterJob = mapreduce.TypedJob[string, trace.Trace, int64, recordio.PointSum, int64, recordio.PointSum]

// kmeansIterKind is the iteration family: one job per Lloyd iteration,
// each differing only in its data (name, cache blob, paths). The
// combiner is always declared; KMeansOptions.UseCombiner decides per
// job whether it stays, and that choice travels as JobWire.HasCombiner.
var kmeansIterKind = mapreduce.Declare(kmeansIterJob{
	Kind: "gepeto/kmeans-iter",
	Mapper: func() mapreduce.TypedMapper[string, trace.Trace, int64, recordio.PointSum] {
		return &kmeansMapper{}
	},
	Reducer:     func() kmeansSumReducer { return kmeansReducer{} },
	Combiner:    func() kmeansSumReducer { return kmeansReducer{} },
	InputKey:    recordio.RawString{},
	InputValue:  recordio.TraceValue{},
	MapKey:      recordio.Int64{},
	MapValue:    recordio.PointSumCodec{},
	OutputKey:   recordio.Int64{},
	OutputValue: recordio.PointSumCodec{},
})

type kmeansSumReducer = mapreduce.TypedReducer[int64, recordio.PointSum, int64, recordio.PointSum]

// kmeansMapper is Algorithm 1: load the centroids from the distributed
// cache in setup, then assign each trace to its closest centroid.
type kmeansMapper struct {
	mapreduce.TypedMapperBase[int64, recordio.PointSum]
	centroids []geo.Point
	metric    geo.Metric
}

func (m *kmeansMapper) Setup(ctx *mapreduce.TaskContext) error {
	blob, ok := ctx.CacheFile(cacheCentroids)
	if !ok {
		return fmt.Errorf("kmeansMapper: centroids not in distributed cache")
	}
	var err error
	m.centroids, err = unmarshalCentroids(blob)
	if err != nil {
		return err
	}
	m.metric, err = geo.ParseMetric(ctx.ConfDefault(confKMeansDistance, "squaredeuclidean"))
	return err
}

func (m *kmeansMapper) Map(_ *mapreduce.TaskContext, _ string, t trace.Trace, emit mapreduce.TypedEmit[int64, recordio.PointSum]) error {
	best, bestDist := 0, m.metric.Distance(t.Point, m.centroids[0])
	for i := 1; i < len(m.centroids); i++ {
		if d := m.metric.Distance(t.Point, m.centroids[i]); d < bestDist {
			best, bestDist = i, d
		}
	}
	// Emit in partial-sum form so the combiner can aggregate.
	emit(int64(best), recordio.PointSum{LatSum: t.Point.Lat, LonSum: t.Point.Lon, N: 1})
	return nil
}

// kmeansReducer is Algorithm 2 and doubles as the combiner: the merge
// of partial sums is associative, so the same reduction runs map-side
// and reduce-side, and the driver computes the average afterwards.
// Sums stay full-precision float64 end to end — the old text codec
// rendered combiner output through %f, quantising each partial sum to
// six decimals and drifting the centroids when combining was on.
type kmeansReducer struct {
	mapreduce.TypedReducerBase[int64, recordio.PointSum]
}

func (kmeansReducer) Reduce(_ *mapreduce.TaskContext, key int64, values []recordio.PointSum, emit mapreduce.TypedEmit[int64, recordio.PointSum]) error {
	var sum recordio.PointSum
	for _, v := range values {
		sum.Merge(v)
	}
	emit(key, sum)
	return nil
}

// randomCenters is Algorithm 3's initialization phase: "randomly
// choose k points from the input dataset as initial centroids",
// performed by a single node because it is computationally cheap. It
// reservoir-samples k traces from the input files.
func randomCenters(fs *dfs.FileSystem, inputPaths []string, k int, seed int64) ([]geo.Point, error) {
	rng := rand.New(rand.NewSource(seed))
	reservoir := make([]geo.Point, 0, k)
	n := 0
	err := geolife.ForEachTrace(fs, inputPaths, func(t trace.Trace) error {
		n++
		if len(reservoir) < k {
			reservoir = append(reservoir, t.Point)
		} else if j := rng.Intn(n); j < k {
			reservoir[j] = t.Point
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("kmeans init: %v", err)
	}
	if len(reservoir) < k {
		return nil, fmt.Errorf("kmeans init: dataset has %d traces, need at least k=%d", n, k)
	}
	return reservoir, nil
}

// readAllPoints loads every trace coordinate from the input files (the
// single-node initialization pass, like randomCenters but retaining all
// points for ++-style seeding).
func readAllPoints(fs *dfs.FileSystem, inputPaths []string) ([]geo.Point, error) {
	var pts []geo.Point
	err := geolife.ForEachTrace(fs, inputPaths, func(t trace.Trace) error {
		pts = append(pts, t.Point)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("kmeans init: %v", err)
	}
	return pts, nil
}

// plusPlusCenters implements k-means++ seeding (Arthur & Vassilvitskii):
// the first centroid is uniform random; each subsequent one is drawn
// with probability proportional to the squared distance from the
// nearest centroid chosen so far.
func plusPlusCenters(points []geo.Point, k int, seed int64, metric geo.Metric) ([]geo.Point, error) {
	if len(points) < k {
		return nil, fmt.Errorf("kmeans init: dataset has %d traces, need at least k=%d", len(points), k)
	}
	rng := rand.New(rand.NewSource(seed))
	centers := make([]geo.Point, 0, k)
	centers = append(centers, points[rng.Intn(len(points))])
	// dist[i] tracks squared distance to the nearest chosen center.
	dist := make([]float64, len(points))
	for i, p := range points {
		dist[i] = geo.SquaredEuclidean(p, centers[0])
	}
	_ = metric // selection always uses squared Euclidean, the ++ paper's D²
	for len(centers) < k {
		var total float64
		for _, d := range dist {
			total += d
		}
		if total == 0 {
			// All remaining points coincide with a center: fall back
			// to uniform picks among the rest.
			centers = append(centers, points[rng.Intn(len(points))])
			continue
		}
		target := rng.Float64() * total
		idx := 0
		for i, d := range dist {
			target -= d
			if target <= 0 {
				idx = i
				break
			}
		}
		c := points[idx]
		centers = append(centers, c)
		for i, p := range points {
			if d := geo.SquaredEuclidean(p, c); d < dist[i] {
				dist[i] = d
			}
		}
	}
	return centers, nil
}

// KMeansPlusPlusSequential is KMeansSequential with ++-seeding, for
// initialization ablations.
func KMeansPlusPlusSequential(points []geo.Point, opts KMeansOptions) *KMeansResult {
	opts = opts.withDefaults()
	centers, err := plusPlusCenters(points, opts.K, opts.Seed, opts.Distance)
	if err != nil {
		return &KMeansResult{}
	}
	return kmeansIterate(points, centers, opts)
}

// readCentroids decodes an iteration's output — one aggregated
// PointSum per cluster — into the next centroid set, keeping the
// previous centroid for clusters that received no points. Averaging
// happens here, driver-side, on full-precision sums; the result is
// quantised to record precision so MR and sequential runs agree.
func readCentroids(e *mapreduce.Engine, outputPath string, prev []geo.Point) ([]geo.Point, []int, error) {
	next := append([]geo.Point(nil), prev...)
	sizes := make([]int, len(prev))
	err := mapreduce.ReadOutput(e, outputPath, recordio.Int64{}, recordio.PointSumCodec{}, func(idx int64, sum recordio.PointSum) error {
		if idx < 0 || idx >= int64(len(prev)) {
			return fmt.Errorf("kmeans: bad centroid index %d", idx)
		}
		if sum.N > 0 {
			next[idx] = geo.Point{
				Lat: quantize(sum.LatSum / float64(sum.N)),
				Lon: quantize(sum.LonSum / float64(sum.N)),
			}
			sizes[idx] = int(sum.N)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return next, sizes, nil
}

func maxMovement(a, b []geo.Point) float64 {
	worst := 0.0
	for i := range a {
		if d := geo.MetricEuclidean.Distance(a[i], b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func marshalCentroids(cs []geo.Point) []byte {
	var sb strings.Builder
	for i, c := range cs {
		fmt.Fprintf(&sb, "%d\t%.6f,%.6f\n", i, c.Lat, c.Lon)
	}
	return []byte(sb.String())
}

func unmarshalCentroids(blob []byte) ([]geo.Point, error) {
	lines := strings.Split(strings.TrimSpace(string(blob)), "\n")
	out := make([]geo.Point, len(lines))
	for _, line := range lines {
		idxS, ptS, ok := strings.Cut(line, "\t")
		if !ok {
			return nil, fmt.Errorf("kmeans: bad centroid line %q", line)
		}
		idx, err := strconv.Atoi(idxS)
		if err != nil || idx < 0 || idx >= len(lines) {
			return nil, fmt.Errorf("kmeans: bad centroid index %q", idxS)
		}
		p, err := parsePoint(ptS)
		if err != nil {
			return nil, err
		}
		out[idx] = p
	}
	return out, nil
}

// reducersFor picks the reduce-task count: min(k, total slots), since
// more than one reducer per cluster key is useless.
func reducersFor(e *mapreduce.Engine, k int) int {
	slots := e.Cluster().TotalSlots()
	if k < slots {
		return k
	}
	if slots < 1 {
		return 1
	}
	return slots
}

// KMeansAssignments runs one extra map-only pass labeling every trace
// with its final centroid: output key = centroid index, value = the
// trace record. Used to materialise cluster membership for inference.
func KMeansAssignments(e *mapreduce.Engine, inputPaths []string, outputPath string, centroids []geo.Point, metric geo.Metric) (*mapreduce.Result, error) {
	tj := assignKind
	tj.Name = "kmeans-assign"
	tj.InputPaths = inputPaths
	tj.OutputPath = outputPath
	tj.Conf = map[string]string{confKMeansDistance: metric.String()}
	tj.Cache = map[string][]byte{cacheCentroids: marshalCentroids(centroids)}
	return e.Run(tj.Build())
}

// assignJob is the map-only labeling pass: trace records in, (centroid
// index, full trace record) out.
type assignJob = mapreduce.TypedJob[string, trace.Trace, int64, trace.Trace, int64, trace.Trace]

var assignKind = mapreduce.Declare(assignJob{
	Kind: "gepeto/kmeans-assign",
	Mapper: func() mapreduce.TypedMapper[string, trace.Trace, int64, trace.Trace] {
		return &assignMapper{}
	},
	InputKey:   recordio.RawString{},
	InputValue: recordio.TraceValue{},
	MapKey:     recordio.Int64{},
	MapValue:   recordio.TraceValue{},
})

// assignMapper emits (centroid index, full trace record). It reuses
// the kmeansMapper centroid-cache setup but keeps the whole trace as
// the value instead of collapsing it to a partial sum.
type assignMapper struct {
	mapreduce.TypedMapperBase[int64, trace.Trace]
	inner kmeansMapper
}

func (m *assignMapper) Setup(ctx *mapreduce.TaskContext) error { return m.inner.Setup(ctx) }

func (m *assignMapper) Map(_ *mapreduce.TaskContext, _ string, t trace.Trace, emit mapreduce.TypedEmit[int64, trace.Trace]) error {
	best, bestDist := 0, m.inner.metric.Distance(t.Point, m.inner.centroids[0])
	for i := 1; i < len(m.inner.centroids); i++ {
		if d := m.inner.metric.Distance(t.Point, m.inner.centroids[i]); d < bestDist {
			best, bestDist = i, d
		}
	}
	emit(int64(best), t)
	return nil
}

// KMeansSequential is the classical single-machine k-means over a set
// of points, the baseline the MapReduce version is checked against.
// It uses the same initialization, assignment, update and convergence
// rules as KMeansMR, so with identical inputs, k and seed the two
// agree to within floating-point summation tolerance (the distributed
// update step adds cluster members in a different order).
func KMeansSequential(points []geo.Point, opts KMeansOptions) *KMeansResult {
	opts = opts.withDefaults()
	if len(points) < opts.K {
		return &KMeansResult{}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	// Reservoir-sample initial centers, matching randomCenters.
	centroids := make([]geo.Point, 0, opts.K)
	for i, p := range points {
		if len(centroids) < opts.K {
			centroids = append(centroids, p)
		} else if j := rng.Intn(i + 1); j < opts.K {
			centroids[j] = p
		}
	}
	return kmeansIterate(points, centroids, opts)
}

// kmeansIterate runs the assignment/update loop from the given initial
// centroids (shared by the uniform and ++-seeded sequential variants).
func kmeansIterate(points []geo.Point, centroids []geo.Point, opts KMeansOptions) *KMeansResult {
	res := &KMeansResult{}
	assign := make([]int, len(points))
	for iter := 0; iter < opts.MaxIter; iter++ {
		res.Iterations++
		// Assignment step.
		for i, p := range points {
			best, bestDist := 0, opts.Distance.Distance(p, centroids[0])
			for c := 1; c < len(centroids); c++ {
				if d := opts.Distance.Distance(p, centroids[c]); d < bestDist {
					best, bestDist = c, d
				}
			}
			assign[i] = best
		}
		// Update step: average each cluster dimension by dimension,
		// quantised to record precision like the MR version.
		latSum := make([]float64, opts.K)
		lonSum := make([]float64, opts.K)
		count := make([]int, opts.K)
		for i, p := range points {
			c := assign[i]
			latSum[c] += quantize(p.Lat)
			lonSum[c] += quantize(p.Lon)
			count[c]++
		}
		next := append([]geo.Point(nil), centroids...)
		for c := 0; c < opts.K; c++ {
			if count[c] > 0 {
				next[c] = geo.Point{
					Lat: quantize(latSum[c] / float64(count[c])),
					Lon: quantize(lonSum[c] / float64(count[c])),
				}
			}
		}
		moved := maxMovement(centroids, next)
		centroids = next
		res.Sizes = count
		if moved <= opts.ConvergenceDelta {
			res.Converged = true
			break
		}
	}
	res.Centroids = centroids
	return res
}

// quantize rounds to the 6-decimal precision of the record format so
// sequential and MapReduce runs agree bit-for-bit.
func quantize(v float64) float64 {
	s := strconv.FormatFloat(v, 'f', 6, 64)
	q, _ := strconv.ParseFloat(s, 64)
	return q
}

// SortPointsByLat orders points south-to-north (stable helper for
// comparing centroid sets in tests and reports).
func SortPointsByLat(ps []geo.Point) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Lat != ps[j].Lat {
			return ps[i].Lat < ps[j].Lat
		}
		return ps[i].Lon < ps[j].Lon
	})
}
