package gepeto

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/geolife"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/recordio"
	"repro/internal/rtree"
	"repro/internal/sfc"
	"repro/internal/trace"
)

// RTreeBuildOptions configures the MapReduce R-tree construction of
// §VII-C (Algorithms 6-9, Fig. 6).
type RTreeBuildOptions struct {
	// Curve is the space-filling curve used by the partitioning
	// function: "zorder" (default) or "hilbert".
	Curve string
	// Partitions is the number p of spatial partitions, i.e. the
	// number of small R-trees built concurrently in phase 2 (default:
	// the cluster's total slots).
	Partitions int
	// SamplePerChunk is the number of objects each phase-1 mapper
	// samples from its chunk (default 200).
	SamplePerChunk int
	// Seed drives the phase-1 reservoir sampling.
	Seed int64
	// Parent is the enclosing observability span, when the build runs
	// inside a larger pipeline (DJ-Cluster sets this).
	Parent string
}

func (o RTreeBuildOptions) withDefaults(e *mapreduce.Engine) RTreeBuildOptions {
	if o.Curve == "" {
		o.Curve = "zorder"
	}
	if o.Partitions <= 0 {
		o.Partitions = e.Cluster().TotalSlots()
		if o.Partitions < 1 {
			o.Partitions = 1
		}
	}
	if o.SamplePerChunk <= 0 {
		o.SamplePerChunk = 200
	}
	return o
}

const (
	confCurve       = "rtree.curve"
	confPartitions  = "rtree.partitions"
	confSampleSize  = "rtree.sample.per.chunk"
	confSeed        = "rtree.seed"
	cachePartitions = "partition-points"
)

// BuildRTreeMR constructs a global R-tree over all traces in
// inputPaths using the three-phase MapReduce process of §VII-C:
//
//  1. samples from every chunk are mapped onto a space-filling curve
//     and a single reducer picks p-1 partitioning points delimiting
//     equally sized, locality-preserving partitions (Algorithms 6-7);
//  2. mappers route every object to its partition and each of the p
//     reducers bulk-builds a small R-tree over its partition
//     (Algorithms 8-9);
//  3. the small R-trees are merged sequentially by a single node (the
//     driver) into the final tree indexing the whole dataset.
//
// The returned results are the phase-1 and phase-2 job reports.
func BuildRTreeMR(e *mapreduce.Engine, inputPaths []string, workDir string, opts RTreeBuildOptions) (tree *rtree.Tree, results []*mapreduce.Result, err error) {
	opts = opts.withDefaults(e)
	spanID := "rtree:" + workDir
	defer e.Obs().Begin(obs.Event{Span: spanID, Parent: opts.Parent, Detail: fmt.Sprintf("curve=%s p=%d", opts.Curve, opts.Partitions)})(&err)
	conf := map[string]string{
		confCurve:      opts.Curve,
		confPartitions: strconv.Itoa(opts.Partitions),
		confSampleSize: strconv.Itoa(opts.SamplePerChunk),
		confSeed:       strconv.FormatInt(opts.Seed, 10),
	}

	// Phase 1: sample scalars, pick partitioning points.
	phase1Out := workDir + "/phase1"
	p1 := rtreePhase1Kind
	p1.Name = "rtree-phase1-sample"
	p1.Parent = spanID
	p1.InputPaths = inputPaths
	p1.OutputPath = phase1Out
	p1.NumReducers = 1
	p1.Conf = conf
	r1, err := e.Run(p1.Build())
	if err != nil {
		return nil, results, err
	}
	results = append(results, r1)
	var keys []string
	var partitionPoints []uint64
	err = mapreduce.ReadOutput(e, phase1Out, recordio.RawString{}, recordio.Uint64List{}, func(key string, points []uint64) error {
		keys, partitionPoints = append(keys, key), points
		return nil
	})
	if err != nil {
		return nil, results, err
	}
	if len(keys) != 1 || keys[0] != "bounds" {
		return nil, results, fmt.Errorf("rtree: phase 1 produced records %q, want 1 bounds record", keys)
	}

	// Phase 2: partition objects and build small R-trees.
	phase2Out := workDir + "/phase2"
	p2 := rtreePhase2Kind
	p2.Name = "rtree-phase2-build"
	p2.Parent = spanID
	p2.InputPaths = inputPaths
	p2.OutputPath = phase2Out
	p2.NumReducers = opts.Partitions
	p2.Conf = conf
	// Phase-2 mappers decode the points with the same codec.
	p2.Cache = map[string][]byte{cachePartitions: recordio.Uint64List{}.Append(nil, partitionPoints)}
	r2, err := e.Run(p2.Build())
	if err != nil {
		return nil, results, err
	}
	results = append(results, r2)

	// Phase 3: merge the small R-trees sequentially ("executed by a
	// single node due to its low computational complexity"). Subtrees
	// are merged in partition order, which follows the curve, so
	// adjacent subtrees are spatially close.
	defer e.Obs().Begin(obs.Event{Span: spanID + "/merge", Parent: spanID, Detail: "sequential subtree merge"})(&err)
	subtrees, err := readSubtrees(e, phase2Out)
	if err != nil {
		return nil, results, err
	}
	tree = rtree.Merge(rtree.DefaultMaxEntries, subtrees...)
	return tree, results, nil
}

// rtreePhase1Job is the typed shape of the sampling phase: trace
// records in, ("sample", curve scalar) intermediates, one ("bounds",
// partitioning points) record out. Scalars travel as raw 8-byte
// big-endian values rather than decimal strings.
type rtreePhase1Job = mapreduce.TypedJob[string, trace.Trace, string, uint64, string, []uint64]

var rtreePhase1Kind = mapreduce.Declare(rtreePhase1Job{
	Kind: "gepeto/rtree-phase1",
	Mapper: func() mapreduce.TypedMapper[string, trace.Trace, string, uint64] {
		return &sampleMapper{}
	},
	Reducer: func() mapreduce.TypedReducer[string, uint64, string, []uint64] {
		return &partitionPointsReducer{}
	},
	InputKey:    recordio.RawString{},
	InputValue:  recordio.TraceValue{},
	MapKey:      recordio.RawString{},
	MapValue:    recordio.Uint64{},
	OutputKey:   recordio.RawString{},
	OutputValue: recordio.Uint64List{},
})

// rtreePhase2Job is the typed shape of the build phase: trace records
// in, (partition index, ID+point) intermediates, one (partition index,
// serialized subtree) record per partition out.
type rtreePhase2Job = mapreduce.TypedJob[string, trace.Trace, int64, recordio.IDPoint, int64, *rtree.Tree]

var rtreePhase2Kind = mapreduce.Declare(rtreePhase2Job{
	Kind: "gepeto/rtree-phase2",
	Mapper: func() mapreduce.TypedMapper[string, trace.Trace, int64, recordio.IDPoint] {
		return &partitionMapper{}
	},
	Reducer: func() mapreduce.TypedReducer[int64, recordio.IDPoint, int64, *rtree.Tree] {
		return &subtreeReducer{}
	},
	InputKey:    recordio.RawString{},
	InputValue:  recordio.TraceValue{},
	MapKey:      recordio.Int64{},
	MapValue:    recordio.IDPointCodec{},
	OutputKey:   recordio.Int64{},
	OutputValue: rtree.Codec{},
	// Partition i goes to reducer i: keys are partition indices.
	Partition: func(idx int64, n int) int {
		if idx < 0 {
			return 0
		}
		return int(idx % int64(n))
	},
})

// sampleMapper is Algorithm 6: it reservoir-samples a predefined
// number of objects from its chunk and outputs the corresponding
// single-dimensional values obtained by applying the space-filling
// curve.
type sampleMapper struct {
	mapreduce.TypedMapperBase[string, uint64]
	curve     sfc.Curve
	rng       *rand.Rand
	size      int
	seen      int
	reservoir []uint64
}

func (m *sampleMapper) Setup(ctx *mapreduce.TaskContext) error {
	var err error
	m.curve, err = curveFromConf(ctx)
	if err != nil {
		return err
	}
	m.size, err = strconv.Atoi(ctx.ConfDefault(confSampleSize, "200"))
	if err != nil || m.size <= 0 {
		return fmt.Errorf("sampleMapper: bad sample size: %v", err)
	}
	seed, err := strconv.ParseInt(ctx.ConfDefault(confSeed, "0"), 10, 64)
	if err != nil {
		return fmt.Errorf("sampleMapper: bad seed: %v", err)
	}
	// Mix the task ID into the seed so chunks sample independently
	// yet deterministically.
	h := fnv.New32a()
	h.Write([]byte(ctx.TaskID))
	m.rng = rand.New(rand.NewSource(seed ^ int64(h.Sum32())))
	m.reservoir = make([]uint64, 0, m.size)
	return nil
}

func (m *sampleMapper) Map(_ *mapreduce.TaskContext, _ string, t trace.Trace, _ mapreduce.TypedEmit[string, uint64]) error {
	m.seen++
	scalar := m.curve.Key(t.Point)
	if len(m.reservoir) < m.size {
		m.reservoir = append(m.reservoir, scalar)
	} else if j := m.rng.Intn(m.seen); j < m.size {
		m.reservoir[j] = scalar
	}
	return nil
}

func (m *sampleMapper) Cleanup(_ *mapreduce.TaskContext, emit mapreduce.TypedEmit[string, uint64]) error {
	for _, s := range m.reservoir {
		emit("sample", s)
	}
	return nil
}

// partitionPointsReducer is Algorithm 7: it collects the sampled
// scalars from all mappers, orders the set, and determines p-1
// partitioning points delimiting the boundaries of each partition.
type partitionPointsReducer struct {
	mapreduce.TypedReducerBase[string, []uint64]
}

func (r *partitionPointsReducer) Reduce(ctx *mapreduce.TaskContext, _ string, values []uint64, emit mapreduce.TypedEmit[string, []uint64]) error {
	p, err := strconv.Atoi(ctx.ConfDefault(confPartitions, "1"))
	if err != nil || p < 1 {
		return fmt.Errorf("partitionPointsReducer: bad partition count: %v", err)
	}
	scalars := append([]uint64(nil), values...)
	sort.Slice(scalars, func(i, j int) bool { return scalars[i] < scalars[j] })
	points := make([]uint64, 0, p-1)
	for i := 1; i < p; i++ {
		idx := i * len(scalars) / p
		if idx >= len(scalars) {
			idx = len(scalars) - 1
		}
		points = append(points, scalars[idx])
	}
	emit("bounds", points)
	return nil
}

// partitionMapper is Algorithm 8: it loads the partitioning points
// computed in phase 1 and assigns each object it reads to a partition
// identifier, the intermediate key, so all datapoints of a partition
// are collected by the same reducer.
type partitionMapper struct {
	mapreduce.TypedMapperBase[int64, recordio.IDPoint]
	curve  sfc.Curve
	points []uint64
}

func (m *partitionMapper) Setup(ctx *mapreduce.TaskContext) error {
	var err error
	m.curve, err = curveFromConf(ctx)
	if err != nil {
		return err
	}
	blob, ok := ctx.CacheFile(cachePartitions)
	if !ok {
		return fmt.Errorf("partitionMapper: partition points not in cache")
	}
	m.points, err = (recordio.Uint64List{}).Decode(string(blob))
	if err != nil {
		return fmt.Errorf("partitionMapper: bad partition points: %v", err)
	}
	return nil
}

func (m *partitionMapper) Map(_ *mapreduce.TaskContext, _ string, t trace.Trace, emit mapreduce.TypedEmit[int64, recordio.IDPoint]) error {
	scalar := m.curve.Key(t.Point)
	idx := sort.Search(len(m.points), func(i int) bool { return m.points[i] > scalar })
	emit(int64(idx), recordio.IDPoint{ID: TraceID(t), P: t.Point})
	return nil
}

// subtreeReducer is Algorithm 9: each reducer bulk-loads the R-tree
// associated with its partition and emits it in serialized form; the
// tree travels as its own structure, so phase 3 merges the very trees
// built here.
type subtreeReducer struct {
	mapreduce.TypedReducerBase[int64, *rtree.Tree]
}

func (r *subtreeReducer) Reduce(ctx *mapreduce.TaskContext, key int64, values []recordio.IDPoint, emit mapreduce.TypedEmit[int64, *rtree.Tree]) error {
	entries := make([]rtree.Entry, 0, len(values))
	for _, v := range values {
		entries = append(entries, rtree.Entry{ID: v.ID, Point: v.P})
	}
	tree := rtree.BulkLoad(entries, rtree.DefaultMaxEntries)
	ctx.Counter("rtree", "subtree_entries").Inc(int64(tree.Len()))
	emit(key, tree)
	return nil
}

// readSubtrees decodes the partition R-trees from phase 2's output.
// Partition i is the one key of reducer i (phase 2 runs a reducer per
// partition), so part-file order is partition order.
func readSubtrees(e *mapreduce.Engine, dir string) ([]*rtree.Tree, error) {
	var trees []*rtree.Tree
	err := mapreduce.ReadOutput(e, dir, recordio.Int64{}, rtree.Codec{}, func(_ int64, t *rtree.Tree) error {
		trees = append(trees, t)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("rtree: reading subtrees: %v", err)
	}
	return trees, nil
}

// curveFromConf builds the job's space-filling curve; Beijing's
// bounding box is its quantisation domain.
func curveFromConf(ctx *mapreduce.TaskContext) (sfc.Curve, error) {
	return sfc.New(ctx.ConfDefault(confCurve, "zorder"), geolife.Beijing)
}
