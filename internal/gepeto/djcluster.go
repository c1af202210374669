package gepeto

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/geo"
	"repro/internal/mapreduce"
	"repro/internal/obs"
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
	constKey      = "c" // the one group of the merging phase without PerUser
)

// DJClusterMR runs the full MapReduced DJ-Cluster over the record
// files in inputPaths, staging intermediates under workDir:
//
//  1. preprocessing — two pipelined map-only jobs (Fig. 5) that keep
//     stationary traces and collapse redundant consecutive ones;
//  2. R-tree construction over the preprocessed traces (§VII-C),
//     shipped to every node via the distributed cache;
//  3. neighborhood computation (map, Algorithm 4) and cluster merging
//     (Algorithm 5: one reducer, or under PerUser one reducer per user
//     group).
func DJClusterMR(e *mapreduce.Engine, inputPaths []string, workDir string, opts DJClusterOptions) (res *DJClusterResult, err error) {
	opts = opts.withDefaults()
	res = &DJClusterResult{}
	spanID := "djcluster:" + workDir
	defer e.Obs().Begin(obs.Event{Span: spanID, Parent: opts.Parent, Detail: fmt.Sprintf("r=%gm minPts=%d", opts.RadiusMeters, opts.MinPts)})(&err)

	// Phase 1: preprocessing pipeline.
	preSpan := spanID + "/preprocess"
	closePre := e.Obs().Begin(obs.Event{Span: preSpan, Parent: spanID, Detail: "speed filter + dedup"})
	speedOut := workDir + "/preprocessed-speed"
	dedupOut := workDir + "/preprocessed"
	speedJob := SpeedFilterJob("djcluster-speedfilter", inputPaths, speedOut, opts.MaxSpeedKmh)
	dedupJob := DedupJob("djcluster-dedup", []string{speedOut}, dedupOut, opts.DupRadiusMeters)
	speedJob.Parent, dedupJob.Parent = preSpan, preSpan
	jobs, err := e.RunPipeline(speedJob, dedupJob)
	res.JobResults = append(res.JobResults, jobs...)
	closePre(&err)
	if err != nil {
		return res, err
	}
	res.InputTraces = jobs[0].Counters.Value(mapreduce.CounterGroupTask, mapreduce.CounterMapInputRecords)
	res.AfterSpeedFilter = jobs[0].Counters.Value(mapreduce.CounterGroupTask, mapreduce.CounterMapOutputRecords)
	res.AfterDedup = jobs[1].Counters.Value(mapreduce.CounterGroupTask, mapreduce.CounterMapOutputRecords)

	// Phase 2: index the preprocessed traces in an R-tree, built with
	// the MapReduce construction of §VII-C. The partition count is
	// resolved once: it also sizes the merge below.
	opts.RTree = opts.RTree.withDefaults(e)
	opts.RTree.Parent = spanID
	tree, treeJobs, err := BuildRTreeMR(e, []string{dedupOut}, workDir+"/rtree", opts.RTree)
	res.JobResults = append(res.JobResults, treeJobs...)
	if err != nil {
		return res, err
	}
	if uint64(tree.Len()) > math.MaxUint32 {
		return res, fmt.Errorf("djcluster: %d traces exceed the uint32 entry ordinals", tree.Len())
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
	// centralized entity." Under PerUser no neighborhood joins two
	// users, so each user's merge is its own centralized entity, and
	// the groups spread over as many reducers as the R-tree has
	// partitions.
	ntj.NumReducers = 1
	if opts.PerUser {
		ntj.NumReducers = opts.RTree.Partitions
	}
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

	// Materialise clusters: an ordinal indexes the tree's entries.
	all := tree.All()
	var sets [][]uint32
	err = mapreduce.ReadOutput(e, clusterOut, recordio.RawString{}, recordio.AscendingList[uint32]{}, func(_ string, set []uint32) error {
		if len(set) == 0 || int(set[len(set)-1]) >= len(all) {
			return fmt.Errorf("djcluster: cluster %v does not index a tree of %d entries", set, len(all))
		}
		sets = append(sets, set)
		return nil
	})
	if err != nil {
		return res, err
	}
	res.Clusters = buildClusters(all, sets, opts.PerUser)
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
// trace records in; (group key, neighborhood) intermediates, where a
// neighborhood is an ascending set of the cached R-tree's entry
// ordinals; and one (group key, cluster) record per cluster out, the
// cluster again an ascending ordinal set. The group key is the center
// trace's user under PerUser, constKey otherwise. Ordinal sets travel
// delta-coded (recordio.AscendingList), so a neighbor costs about a
// byte. The merge is associative, so it also serves as the combiner.
type neighborhoodJob = mapreduce.TypedJob[string, trace.Trace, string, []uint32, string, []uint32]

var neighborhoodKind = mapreduce.Declare(neighborhoodJob{
	Kind: "gepeto/djcluster-neighborhood",
	Mapper: func() mapreduce.TypedMapper[string, trace.Trace, string, []uint32] {
		return &neighborhoodMapper{}
	},
	Reducer:     newMergeReducer,
	Combiner:    newMergeReducer,
	InputKey:    recordio.RawString{},
	InputValue:  recordio.TraceValue{},
	MapKey:      recordio.RawString{},
	MapValue:    recordio.AscendingList[uint32]{},
	OutputKey:   recordio.RawString{},
	OutputValue: recordio.AscendingList[uint32]{},
})

// neighborhoodMapper is Algorithm 4: it loads the R-tree from the
// distributed cache in setup, computes the neighborhood of each trace
// (the points within distance r, requiring at least MinPts of them),
// marks under-dense traces as noise, and emits (group key,
// neighborhood) pairs so that one reducer collects each group.
type neighborhoodMapper struct {
	mapreduce.TypedMapperBase[string, []uint32]
	tree    *rtree.Tree
	index   userIndex // built under PerUser only
	radius  float64
	minPts  int
	perUser bool
	hood    []uint32 // the current neighborhood, reused
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
	if m.perUser, err = strconv.ParseBool(ctx.ConfDefault(confPerUser, "true")); err != nil {
		return fmt.Errorf("neighborhoodMapper: bad %s: %v", confPerUser, err)
	}
	if m.perUser {
		m.index = indexUsers(m.tree.All())
	}
	return nil
}

func (m *neighborhoodMapper) Map(ctx *mapreduce.TaskContext, _ string, t trace.Trace, emit mapreduce.TypedEmit[string, []uint32]) error {
	key, user := constKey, int32(-1)
	if m.perUser {
		var ok bool
		if user, ok = m.index.userOf(t.User); !ok {
			return fmt.Errorf("neighborhoodMapper: user %q has no trace in the R-tree", t.User)
		}
		key = t.User
	}
	m.hood = m.index.neighborhood(m.hood[:0], m.tree, t.Point, m.radius, user)
	if len(m.hood) < m.minPts {
		ctx.Counter("djcluster", "noise").Inc(1)
		return nil
	}
	emit(key, m.hood)
	return nil
}

// userIndex numbers the users of an R-tree's entries, so that the
// per-user filter of a neighborhood compares integers, not ID strings.
type userIndex struct {
	users []string // the distinct users, sorted
	user  []int32  // entry ordinal -> index in users
}

// indexUsers indexes the users of a tree's entries, in All() order.
func indexUsers(entries []rtree.Entry) userIndex {
	// Neighbors in leaf order are mostly one user's: only the first
	// entry of a run of one user's entries is sorted and looked up.
	ix := userIndex{user: make([]int32, len(entries))}
	for i, e := range entries {
		if u := UserOfTraceID(e.ID); i == 0 || u != UserOfTraceID(entries[i-1].ID) {
			ix.users = append(ix.users, u)
		}
	}
	slices.Sort(ix.users)
	ix.users = slices.Compact(ix.users)
	for i, e := range entries {
		if u := UserOfTraceID(e.ID); i == 0 || u != ix.users[ix.user[i-1]] {
			ix.user[i], _ = ix.userOf(u)
		} else {
			ix.user[i] = ix.user[i-1]
		}
	}
	return ix
}

// userOf returns the index of user, if the tree holds a trace of it.
func (ix *userIndex) userOf(user string) (int32, bool) {
	i, ok := slices.BinarySearch(ix.users, user)
	return int32(i), ok
}

// neighborhood appends to dst the neighborhood of center: the
// ascending ordinals of the tree's entries within radiusMeters of it,
// kept to the entries of user unless user < 0. The center's own entry
// is among them, at distance 0.
func (ix *userIndex) neighborhood(dst []uint32, tree *rtree.Tree, center geo.Point, radiusMeters float64, user int32) []uint32 {
	start := len(dst)
	dst = tree.AppendWithin(dst, center, radiusMeters)
	if user < 0 {
		return dst
	}
	hood := dst[:start]
	for _, o := range dst[start:] {
		if ix.user[o] == user {
			hood = append(hood, o)
		}
	}
	return hood
}

// mergeReducer is Algorithm 5: it merges every pair of joinable
// neighborhoods of its group — two neighborhoods are joinable if at
// least one trace belongs to both — and emits each resulting cluster
// as one ascending ordinal set under the group's key. A union of
// joinable sets is again such a set, so the same code folds a map
// task's neighborhoods as the combiner.
type mergeReducer struct {
	mapreduce.TypedReducerBase[string, []uint32]
}

func newMergeReducer() mapreduce.TypedReducer[string, []uint32, string, []uint32] {
	return &mergeReducer{}
}

func (r *mergeReducer) Reduce(_ *mapreduce.TaskContext, key string, values [][]uint32, emit mapreduce.TypedEmit[string, []uint32]) error {
	for _, v := range values {
		if len(v) == 0 {
			return fmt.Errorf("mergeReducer: empty neighborhood")
		}
	}
	m := mergers.Get().(*merger)
	defer mergers.Put(m)
	for _, v := range values {
		m.add(v)
	}
	m.flush(func(c []uint32) { emit(key, c) })
	return nil
}

// mergers recycles merge state across groups, reducers and combine
// passes: a merger's ordinal table grows to the largest ordinal seen,
// so a fresh one per combine pass would cost the tree's size each time.
var mergers = sync.Pool{New: func() any { return new(merger) }}

// merger is a union-find over R-tree entry ordinals. Ordinals become
// dense nodes on first sight; sets are added one at a time and their
// members unioned, and flush emits the components. A merger is empty
// between flushes.
type merger struct {
	node   []int32  // ordinal -> union-find node, -1 if unseen
	ord    []uint32 // node -> ordinal
	parent []int32  // node -> parent node
	// flush's scratch
	sorted, members []uint32
	comp, end       []int32
}

// add unions the members of one set.
func (m *merger) add(set []uint32) {
	root := m.find(m.nodeOf(set[0]))
	for _, o := range set[1:] {
		if r := m.find(m.nodeOf(o)); r != root {
			m.parent[r] = root
		}
	}
}

func (m *merger) nodeOf(o uint32) int32 {
	if int(o) >= len(m.node) {
		grown := max(int(o)+1, 2*len(m.node))
		for len(m.node) < grown {
			m.node = append(m.node, -1)
		}
	}
	if n := m.node[o]; n >= 0 {
		return n
	}
	n := int32(len(m.ord))
	m.node[o] = n
	m.ord = append(m.ord, o)
	m.parent = append(m.parent, n)
	return n
}

// find returns n's root, halving the path on the way.
func (m *merger) find(n int32) int32 {
	for m.parent[n] != n {
		m.parent[n] = m.parent[m.parent[n]]
		n = m.parent[n]
	}
	return n
}

// flush emits every component as an ascending ordinal set, in the
// order of their smallest ordinals, and empties the merger. The slice
// emit receives is reused by the next flush.
func (m *merger) flush(emit func([]uint32)) {
	m.sorted = append(m.sorted[:0], m.ord...)
	slices.Sort(m.sorted)
	// Number the components by their smallest ordinal and count their
	// members; then lay them out back to back in members, where end
	// turns from each component's size into its next free slot and,
	// once all are placed, its end.
	m.comp = m.comp[:0]
	for range m.ord {
		m.comp = append(m.comp, -1)
	}
	m.end = m.end[:0]
	for _, o := range m.sorted {
		r := m.find(m.node[o])
		if m.comp[r] < 0 {
			m.comp[r] = int32(len(m.end))
			m.end = append(m.end, 0)
		}
		m.end[m.comp[r]]++
	}
	next := int32(0)
	for c, size := range m.end {
		m.end[c], next = next, next+size
	}
	m.members = append(m.members[:0], m.sorted...)
	for _, o := range m.sorted {
		c := m.comp[m.find(m.node[o])]
		m.members[m.end[c]] = o
		m.end[c]++
	}
	from := int32(0)
	for _, end := range m.end {
		emit(m.members[from:end])
		from = end
	}
	for _, o := range m.ord {
		m.node[o] = -1
	}
	m.ord, m.parent = m.ord[:0], m.parent[:0]
}

// buildClusters turns merged ordinal sets into clusters over the
// tree's entries: members are the entries' IDs, sorted, and the
// centroid their points' mean, summed in that order. Entries sharing
// a TraceID are one trace, as equal ID strings are one member: their
// sets are joined, and the first entry of the ID stands for it.
// Clusters are then ordered by descending size and smallest member —
// both independent of how the merge was split — and named
// cluster-0000 on.
func buildClusters(entries []rtree.Entry, sets [][]uint32, perUser bool) []Cluster {
	var byID []uint32
	for _, set := range sets {
		byID = append(byID, set...)
	}
	slices.SortFunc(byID, func(a, b uint32) int {
		return cmp.Or(strings.Compare(entries[a].ID, entries[b].ID), cmp.Compare(a, b))
	})
	var join *merger
	for k := 1; k < len(byID); k++ {
		if entries[byID[k]].ID == entries[byID[k-1]].ID {
			if join == nil {
				join = new(merger)
				for _, set := range sets {
					join.add(set)
				}
			}
			join.add(byID[k-1 : k+1])
		}
	}
	if join != nil {
		sets = nil
		join.flush(func(c []uint32) { sets = append(sets, slices.Clone(c)) })
	}

	setOf := make([]int32, len(entries))
	cs := make([]Cluster, len(sets))
	for i, set := range sets {
		for _, o := range set {
			setOf[o] = int32(i)
		}
		cs[i].Members = make([]string, 0, len(set))
	}
	for k, o := range byID {
		if k > 0 && entries[o].ID == entries[byID[k-1]].ID {
			continue
		}
		c := &cs[setOf[o]]
		c.Members = append(c.Members, entries[o].ID)
		c.Centroid.Lat += entries[o].Point.Lat
		c.Centroid.Lon += entries[o].Point.Lon
	}
	for i := range cs {
		c := &cs[i]
		n := float64(len(c.Members))
		c.Centroid = geo.Point{Lat: c.Centroid.Lat / n, Lon: c.Centroid.Lon / n}
		if perUser {
			c.User = UserOfTraceID(c.Members[0])
		}
	}
	slices.SortFunc(cs, func(a, b Cluster) int {
		return cmp.Or(cmp.Compare(len(b.Members), len(a.Members)), strings.Compare(a.Members[0], b.Members[0]))
	})
	for i := range cs {
		cs[i].ID = fmt.Sprintf("cluster-%04d", i)
	}
	return cs
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
// R-tree, then joinable-cluster merging. It runs the MR job's
// neighborhood search, merge and cluster naming (including PerUser)
// in one process and is the baseline for correctness checks.
func DJClusterSequential(ds *trace.Dataset, opts DJClusterOptions) *DJClusterResult {
	opts = opts.withDefaults()
	entries := make([]rtree.Entry, 0, ds.NumTraces())
	for _, tr := range ds.Trails {
		for _, t := range tr.Traces {
			entries = append(entries, rtree.Entry{ID: TraceID(t), Point: t.Point})
		}
	}
	tree := rtree.BulkLoad(entries, rtree.DefaultMaxEntries)
	all := tree.All()
	var ix userIndex
	if opts.PerUser {
		ix = indexUsers(all)
	}

	res := &DJClusterResult{InputTraces: int64(len(entries))}
	m := new(merger)
	var hood []uint32
	for o, e := range all {
		user := int32(-1)
		if opts.PerUser {
			user = ix.user[o]
		}
		if hood = ix.neighborhood(hood[:0], tree, e.Point, opts.RadiusMeters, user); len(hood) < opts.MinPts {
			res.Noise++
			continue
		}
		m.add(hood)
	}
	var sets [][]uint32
	m.flush(func(c []uint32) { sets = append(sets, slices.Clone(c)) })
	res.Clusters = buildClusters(all, sets, opts.PerUser)
	return res
}
