package gepeto

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/geo"
	"repro/internal/mapreduce"
	"repro/internal/recordio"
	"repro/internal/rtree"
	"repro/internal/trace"
)

// DJClusterOptions parameterises DJ-Cluster (paper §VII): the
// neighborhood radius r, the density lower bound MinPts, and the
// preprocessing thresholds.
type DJClusterOptions struct {
	// RadiusMeters is r, the radius of the circle defining a
	// neighborhood (default 25 m).
	RadiusMeters float64
	// MinPts is the minimum number of points a neighborhood must
	// contain (default 4).
	MinPts int
	// MaxSpeedKmh is the preprocessing threshold v: traces moving
	// faster are discarded (default 2 km/h, §VII-A).
	MaxSpeedKmh float64
	// DupRadiusMeters is the redundancy threshold: consecutive traces
	// closer than this are collapsed to the first (default 1 m, which
	// removes ~1% of sampled traces like Table IV's dedup column).
	DupRadiusMeters float64
	// PerUser restricts neighborhoods to traces of the same user, so
	// clusters are personal POIs rather than citywide hotspots
	// (default true, matching GEPETO's POI-extraction use).
	PerUser bool
	// RTree configures the MapReduce R-tree construction used to
	// index the preprocessed traces (§VII-C).
	RTree RTreeBuildOptions
	// Parent is the enclosing observability span, when the clustering
	// runs inside a larger pipeline ("" for a standalone run).
	Parent string
}

func (o DJClusterOptions) withDefaults() DJClusterOptions {
	if o.RadiusMeters <= 0 {
		o.RadiusMeters = 25
	}
	if o.MinPts <= 0 {
		o.MinPts = 4
	}
	if o.MaxSpeedKmh <= 0 {
		o.MaxSpeedKmh = 2
	}
	if o.DupRadiusMeters <= 0 {
		o.DupRadiusMeters = 1
	}
	return o
}

// DefaultDJClusterOptions returns the defaults with PerUser enabled.
func DefaultDJClusterOptions() DJClusterOptions {
	return DJClusterOptions{PerUser: true}.withDefaults()
}

// Cluster is one density-joinable cluster produced by DJ-Cluster.
type Cluster struct {
	// ID is a stable cluster identifier.
	ID string
	// User is the owning user when clustering per-user ("" for
	// global clustering).
	User string
	// Members are the TraceIDs of the cluster's traces.
	Members []string
	// Centroid is the mean position of the members.
	Centroid geo.Point
}

// DJClusterResult reports a finished DJ-Cluster run.
type DJClusterResult struct {
	// Clusters are the discovered clusters, sorted by descending size.
	Clusters []Cluster
	// Noise is the number of traces marked as noise (neighborhood
	// smaller than MinPts).
	Noise int64
	// PreprocessedTraces is the trace count after the two filtering
	// jobs, and the per-stage counts match Table IV's columns.
	InputTraces, AfterSpeedFilter, AfterDedup int64
	// JobResults holds every MapReduce job executed (speed filter,
	// dedup, R-tree phases, neighborhood+merge).
	JobResults []*mapreduce.Result
}

const (
	confMaxSpeed  = "djcluster.maxspeed.kmh"
	confDupRadius = "djcluster.dupradius.meters"
	confRadius    = "djcluster.radius.meters"
	confMinPts    = "djcluster.minpts"
	confPerUser   = "djcluster.peruser"
	cacheRTree    = "rtree"
	constKey      = "c" // single-reducer key for the merging phase
)

// DJClusterMR runs the full MapReduced DJ-Cluster over the record
// files in inputPaths, staging intermediates under workDir:
//
//  1. preprocessing — two pipelined map-only jobs (Fig. 5) that keep
//     stationary traces and collapse redundant consecutive ones;
//  2. R-tree construction over the preprocessed traces (§VII-C),
//     shipped to every node via the distributed cache;
//  3. neighborhood computation (map, Algorithm 4) and cluster merging
//     (single reducer, Algorithm 5).
func DJClusterMR(e *mapreduce.Engine, inputPaths []string, workDir string, opts DJClusterOptions) (res *DJClusterResult, err error) {
	opts = opts.withDefaults()
	res = &DJClusterResult{}
	spanID := "djcluster:" + workDir
	defer span(e, spanID, opts.Parent, fmt.Sprintf("r=%gm minPts=%d", opts.RadiusMeters, opts.MinPts), &err)()

	// Phase 1: preprocessing pipeline.
	preSpan := spanID + "/preprocess"
	closePre := span(e, preSpan, spanID, "speed filter + dedup", &err)
	speedOut := workDir + "/preprocessed-speed"
	dedupOut := workDir + "/preprocessed"
	speedJob := SpeedFilterJob("djcluster-speedfilter", inputPaths, speedOut, opts.MaxSpeedKmh)
	dedupJob := DedupJob("djcluster-dedup", []string{speedOut}, dedupOut, opts.DupRadiusMeters)
	speedJob.Parent, dedupJob.Parent = preSpan, preSpan
	jobs, err := e.RunPipeline(speedJob, dedupJob)
	res.JobResults = append(res.JobResults, jobs...)
	closePre()
	if err != nil {
		return res, err
	}
	res.InputTraces = jobs[0].Counters.Value(mapreduce.CounterGroupTask, mapreduce.CounterMapInputRecords)
	res.AfterSpeedFilter = jobs[0].Counters.Value(mapreduce.CounterGroupTask, mapreduce.CounterMapOutputRecords)
	res.AfterDedup = jobs[1].Counters.Value(mapreduce.CounterGroupTask, mapreduce.CounterMapOutputRecords)

	// Phase 2: index the preprocessed traces in an R-tree, built with
	// the MapReduce construction of §VII-C.
	opts.RTree.Parent = spanID
	tree, treeJobs, err := BuildRTreeMR(e, []string{dedupOut}, workDir+"/rtree", opts.RTree)
	res.JobResults = append(res.JobResults, treeJobs...)
	if err != nil {
		return res, err
	}

	// Phase 3: neighborhood map + merging reduce.
	clusterOut := workDir + "/clusters"
	ntj := neighborhoodKind
	ntj.Name = "djcluster-neighborhood"
	ntj.Parent = spanID
	ntj.InputPaths = []string{dedupOut}
	ntj.OutputPath = clusterOut
	// "A single reducer implements the last phase of the algorithm as
	// the merging of joinable neighborhoods must be done by a
	// centralized entity."
	ntj.NumReducers = 1
	ntj.Conf = map[string]string{
		confRadius:  strconv.FormatFloat(opts.RadiusMeters, 'f', -1, 64),
		confMinPts:  strconv.Itoa(opts.MinPts),
		confPerUser: strconv.FormatBool(opts.PerUser),
	}
	// The mappers search this very tree: it travels as its structure.
	ntj.Cache = map[string][]byte{cacheRTree: rtree.Codec{}.Append(nil, tree)}
	jr, err := e.Run(ntj.Build())
	if err != nil {
		return res, err
	}
	res.JobResults = append(res.JobResults, jr)
	res.Noise = jr.Counters.Value("djcluster", "noise")

	// Materialise clusters, computing centroids from the index.
	id2pt := make(map[string]geo.Point, tree.Len())
	for _, entry := range tree.All() {
		id2pt[entry.ID] = entry.Point
	}
	var clusters []Cluster
	err = mapreduce.ReadOutput(e, clusterOut, recordio.RawString{}, recordio.StringList{}, func(id string, members []string) error {
		c := Cluster{ID: id, Members: members}
		if opts.PerUser && len(members) > 0 {
			c.User = UserOfTraceID(members[0])
		}
		var lat, lon float64
		for _, m := range members {
			p, ok := id2pt[m]
			if !ok {
				return fmt.Errorf("djcluster: member %q missing from index", m)
			}
			lat += p.Lat
			lon += p.Lon
		}
		n := float64(len(members))
		c.Centroid = geo.Point{Lat: lat / n, Lon: lon / n}
		clusters = append(clusters, c)
		return nil
	})
	if err != nil {
		return res, err
	}
	res.Clusters = clusters
	sortClusters(res.Clusters)
	return res, nil
}

// SpeedFilterJob builds the first preprocessing job of Fig. 5: a
// map-only job that computes the speed of each trace — the distance
// traveled between the previous and the next traces divided by the
// corresponding time difference — and outputs only the traces whose
// speed is at most maxSpeedKmh.
func SpeedFilterJob(name string, inputPaths []string, outputPath string, maxSpeedKmh float64) *mapreduce.Job {
	return BuildTraceFilter(speedFilterKind, name, inputPaths, outputPath,
		map[string]string{confMaxSpeed: strconv.FormatFloat(maxSpeedKmh, 'f', -1, 64)})
}

var speedFilterKind = DeclareTraceFilter("gepeto/speedfilter", func() TraceMapper { return &speedFilterMapper{} })

// speedFilterMapper keeps a two-trace lookbehind per user so each
// interior trace's speed uses the centered difference; the first and
// last traces of a chunk fall back to one-sided speeds.
type speedFilterMapper struct {
	mapreduce.TypedMapperBase[string, trace.Trace]
	maxSpeed float64
	state    map[string]*speedState
}

type speedState struct {
	prev, cur trace.Trace
	n         int // traces seen
}

func (m *speedFilterMapper) Setup(ctx *mapreduce.TaskContext) error {
	v, err := strconv.ParseFloat(ctx.ConfDefault(confMaxSpeed, "2"), 64)
	if err != nil || v <= 0 {
		return fmt.Errorf("speedFilterMapper: bad %s: %v", confMaxSpeed, err)
	}
	m.maxSpeed = v
	m.state = make(map[string]*speedState)
	return nil
}

func (m *speedFilterMapper) Map(ctx *mapreduce.TaskContext, _ string, t trace.Trace, emit mapreduce.TypedEmit[string, trace.Trace]) error {
	st, ok := m.state[t.User]
	if !ok {
		m.state[t.User] = &speedState{cur: t, n: 1}
		return nil
	}
	st.n++
	if st.n == 2 {
		// First trace of the chunk: one-sided speed cur -> t.
		m.filter(ctx, st.cur, st.cur, t, emit)
	} else {
		m.filter(ctx, st.prev, st.cur, t, emit)
	}
	st.prev, st.cur = st.cur, t
	return nil
}

func (m *speedFilterMapper) Cleanup(ctx *mapreduce.TaskContext, emit mapreduce.TypedEmit[string, trace.Trace]) error {
	// Flush each user's final trace with a one-sided speed.
	users := make([]string, 0, len(m.state))
	for u := range m.state {
		users = append(users, u)
	}
	sort.Strings(users)
	for _, u := range users {
		st := m.state[u]
		if st.n == 1 {
			// Lone trace: no speed evidence; it is stationary by
			// definition of the filter (nothing to move from).
			emit(st.cur.User, st.cur)
			ctx.Counter("djcluster", "speed_kept").Inc(1)
			continue
		}
		m.filter(ctx, st.prev, st.cur, st.cur, emit)
	}
	return nil
}

// filter emits cur iff its speed (prev -> next over their time span)
// is within the threshold.
func (m *speedFilterMapper) filter(ctx *mapreduce.TaskContext, prev, cur, next trace.Trace, emit mapreduce.TypedEmit[string, trace.Trace]) {
	dt := next.Time.Sub(prev.Time).Seconds()
	v := geo.SpeedKmh(prev.Point, next.Point, dt)
	if v <= m.maxSpeed {
		emit(cur.User, cur)
		ctx.Counter("djcluster", "speed_kept").Inc(1)
	} else {
		ctx.Counter("djcluster", "speed_dropped").Inc(1)
	}
}

// DedupJob builds the second preprocessing job of Fig. 5: a map-only
// job that removes redundant consecutive traces — traces with almost
// the same spatial coordinate but different timestamps — keeping the
// first of each redundant sequence.
func DedupJob(name string, inputPaths []string, outputPath string, dupRadiusMeters float64) *mapreduce.Job {
	return BuildTraceFilter(dedupKind, name, inputPaths, outputPath,
		map[string]string{confDupRadius: strconv.FormatFloat(dupRadiusMeters, 'f', -1, 64)})
}

var dedupKind = DeclareTraceFilter("gepeto/dedup", func() TraceMapper { return &dedupMapper{} })

type dedupMapper struct {
	mapreduce.TypedMapperBase[string, trace.Trace]
	radius float64
	last   map[string]geo.Point
}

func (m *dedupMapper) Setup(ctx *mapreduce.TaskContext) error {
	r, err := strconv.ParseFloat(ctx.ConfDefault(confDupRadius, "2"), 64)
	if err != nil || r < 0 {
		return fmt.Errorf("dedupMapper: bad %s: %v", confDupRadius, err)
	}
	m.radius = r
	m.last = make(map[string]geo.Point)
	return nil
}

func (m *dedupMapper) Map(ctx *mapreduce.TaskContext, _ string, t trace.Trace, emit mapreduce.TypedEmit[string, trace.Trace]) error {
	if last, ok := m.last[t.User]; ok && geo.Haversine(last, t.Point) <= m.radius {
		ctx.Counter("djcluster", "dup_dropped").Inc(1)
		return nil
	}
	m.last[t.User] = t.Point
	emit(t.User, t)
	return nil
}

// neighborhoodJob is the typed shape of the neighborhood+merge job:
// trace records in, (constant key, [center, neighbor...] ID list)
// intermediates, and one (cluster ID, member IDs) record per cluster
// out. Both ID lists travel as length-prefixed binary string lists.
type neighborhoodJob = mapreduce.TypedJob[string, trace.Trace, string, []string, string, []string]

var neighborhoodKind = mapreduce.Declare(neighborhoodJob{
	Kind: "gepeto/djcluster-neighborhood",
	Mapper: func() mapreduce.TypedMapper[string, trace.Trace, string, []string] {
		return &neighborhoodMapper{}
	},
	Reducer: func() mapreduce.TypedReducer[string, []string, string, []string] {
		return &mergeReducer{}
	},
	InputKey:    recordio.RawString{},
	InputValue:  recordio.TraceValue{},
	MapKey:      recordio.RawString{},
	MapValue:    recordio.StringList{},
	OutputKey:   recordio.RawString{},
	OutputValue: recordio.StringList{},
})

// neighborhoodMapper is Algorithm 4: it loads the R-tree from the
// distributed cache in setup, computes the neighborhood of each trace
// (the points within distance r, requiring at least MinPts of them),
// marks under-dense traces as noise, and emits (constant key, trace
// plus neighborhood) pairs so a single reducer collects them all.
type neighborhoodMapper struct {
	mapreduce.TypedMapperBase[string, []string]
	tree    *rtree.Tree
	radius  float64
	minPts  int
	perUser bool
}

func (m *neighborhoodMapper) Setup(ctx *mapreduce.TaskContext) error {
	blob, ok := ctx.CacheFile(cacheRTree)
	if !ok {
		return fmt.Errorf("neighborhoodMapper: R-tree not in distributed cache")
	}
	var err error
	m.tree, err = rtree.Codec{}.Decode(string(blob))
	if err != nil {
		return err
	}
	if m.radius, err = strconv.ParseFloat(ctx.ConfDefault(confRadius, "25"), 64); err != nil {
		return err
	}
	if m.minPts, err = strconv.Atoi(ctx.ConfDefault(confMinPts, "4")); err != nil {
		return err
	}
	m.perUser = ctx.ConfDefault(confPerUser, "true") == "true"
	return nil
}

func (m *neighborhoodMapper) Map(ctx *mapreduce.TaskContext, _ string, t trace.Trace, emit mapreduce.TypedEmit[string, []string]) error {
	neighbors := m.tree.Within(t.Point, m.radius)
	// ids[0] is the neighborhood's center trace; the rest its members.
	ids := make([]string, 1, len(neighbors)+1)
	ids[0] = TraceID(t)
	for _, n := range neighbors {
		if m.perUser && UserOfTraceID(n.ID) != t.User {
			continue
		}
		ids = append(ids, n.ID)
	}
	if len(ids)-1 < m.minPts {
		ctx.Counter("djcluster", "noise").Inc(1)
		return nil
	}
	sort.Strings(ids[1:])
	emit(constKey, ids)
	return nil
}

// mergeReducer is Algorithm 5: it collects all neighborhoods built by
// the mappers and merges every pair of joinable neighborhoods — two
// neighborhoods are joinable if at least one trace belongs to both —
// using a union-find over trace IDs. Each output record is one final
// cluster: key "cluster-N", value the sorted member IDs.
type mergeReducer struct {
	mapreduce.TypedReducerBase[string, []string]
}

func (r *mergeReducer) Reduce(_ *mapreduce.TaskContext, _ string, values [][]string, emit mapreduce.TypedEmit[string, []string]) error {
	parent := make(map[string]string)
	var find func(string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok {
			parent[x] = x
			return x
		}
		if p == x {
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	union := func(a, b string) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	for _, v := range values {
		if len(v) == 0 {
			return fmt.Errorf("mergeReducer: empty neighborhood")
		}
		center := v[0]
		for _, id := range v[1:] {
			union(center, id)
		}
	}
	// Gather members by root.
	groups := make(map[string][]string)
	for id := range parent {
		root := find(id)
		groups[root] = append(groups[root], id)
	}
	roots := make([]string, 0, len(groups))
	for root := range groups {
		roots = append(roots, root)
	}
	sort.Strings(roots)
	for i, root := range roots {
		members := groups[root]
		sort.Strings(members)
		emit(fmt.Sprintf("cluster-%04d", i), members)
	}
	return nil
}

// sortClusters orders clusters by descending size, then by ID.
func sortClusters(cs []Cluster) {
	sort.Slice(cs, func(i, j int) bool {
		if len(cs[i].Members) != len(cs[j].Members) {
			return len(cs[i].Members) > len(cs[j].Members)
		}
		return cs[i].ID < cs[j].ID
	})
}

// PreprocessSequential applies the speed filter and dedup to a dataset
// in memory — the reference for Table IV and for cross-checking the
// MapReduce pipeline. It returns the dataset after each stage.
func PreprocessSequential(ds *trace.Dataset, maxSpeedKmh, dupRadiusMeters float64) (afterSpeed, afterDedup *trace.Dataset) {
	afterSpeed = &trace.Dataset{}
	for _, tr := range ds.Trails {
		kept := trace.Trail{User: tr.User}
		n := len(tr.Traces)
		for i, t := range tr.Traces {
			pi, ni := i-1, i+1
			if pi < 0 {
				pi = i
			}
			if ni >= n {
				ni = i
			}
			if pi == ni {
				// Lone trace.
				kept.Traces = append(kept.Traces, t)
				continue
			}
			prev, next := tr.Traces[pi], tr.Traces[ni]
			dt := next.Time.Sub(prev.Time).Seconds()
			if geo.SpeedKmh(prev.Point, next.Point, dt) <= maxSpeedKmh {
				kept.Traces = append(kept.Traces, t)
			}
		}
		afterSpeed.Trails = append(afterSpeed.Trails, kept)
	}
	afterDedup = &trace.Dataset{}
	for _, tr := range afterSpeed.Trails {
		kept := trace.Trail{User: tr.User}
		var last geo.Point
		haveLast := false
		for _, t := range tr.Traces {
			if haveLast && geo.Haversine(last, t.Point) <= dupRadiusMeters {
				continue
			}
			last, haveLast = t.Point, true
			kept.Traces = append(kept.Traces, t)
		}
		afterDedup.Trails = append(afterDedup.Trails, kept)
	}
	return afterSpeed, afterDedup
}

// DJClusterSequential is the single-machine DJ-Cluster over an
// already-preprocessed dataset: neighborhoods via a bulk-loaded
// R-tree, then joinable-cluster merging. It mirrors the MR semantics
// (including PerUser) and is the baseline for correctness checks.
func DJClusterSequential(ds *trace.Dataset, opts DJClusterOptions) *DJClusterResult {
	opts = opts.withDefaults()
	entries := make([]rtree.Entry, 0, ds.NumTraces())
	id2pt := make(map[string]geo.Point)
	for _, tr := range ds.Trails {
		for _, t := range tr.Traces {
			id := TraceID(t)
			entries = append(entries, rtree.Entry{ID: id, Point: t.Point})
			id2pt[id] = t.Point
		}
	}
	tree := rtree.BulkLoad(entries, rtree.DefaultMaxEntries)

	res := &DJClusterResult{InputTraces: int64(len(entries))}
	parent := make(map[string]string)
	var find func(string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok {
			parent[x] = x
			return x
		}
		if p == x {
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	union := func(a, b string) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	for _, e := range entries {
		neighbors := tree.Within(e.Point, opts.RadiusMeters)
		count := 0
		user := UserOfTraceID(e.ID)
		for _, n := range neighbors {
			if opts.PerUser && UserOfTraceID(n.ID) != user {
				continue
			}
			count++
		}
		if count < opts.MinPts {
			res.Noise++
			continue
		}
		for _, n := range neighbors {
			if opts.PerUser && UserOfTraceID(n.ID) != user {
				continue
			}
			union(e.ID, n.ID)
		}
	}
	groups := make(map[string][]string)
	for id := range parent {
		groups[find(id)] = append(groups[find(id)], id)
	}
	roots := make([]string, 0, len(groups))
	for root := range groups {
		roots = append(roots, root)
	}
	sort.Strings(roots)
	for i, root := range roots {
		members := groups[root]
		sort.Strings(members)
		c := Cluster{ID: fmt.Sprintf("cluster-%04d", i), Members: members}
		if opts.PerUser {
			c.User = UserOfTraceID(members[0])
		}
		var lat, lon float64
		for _, m := range members {
			p := id2pt[m]
			lat += p.Lat
			lon += p.Lon
		}
		n := float64(len(members))
		c.Centroid = geo.Point{Lat: lat / n, Lon: lon / n}
		res.Clusters = append(res.Clusters, c)
	}
	sortClusters(res.Clusters)
	return res
}
