package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/geo"
	"repro/internal/geolife"
	"repro/internal/gepeto"
	"repro/internal/rtree"
	"repro/internal/trace"
)

// Every reference here is read back from DFS, so coordinates carry the
// stored precision the pipelines see, and is computed once per run by
// single-threaded code that shares nothing with the engine.

func readPoints(fs *dfs.FileSystem, input string) ([]geo.Point, error) {
	var pts []geo.Point
	err := geolife.ForEachTrace(fs, []string{input}, func(t trace.Trace) error {
		pts = append(pts, t.Point)
		return nil
	})
	return pts, err
}

// withinRadiusM is DJ-Cluster's neighborhood radius.
const withinRadiusM = 25

// withinRef answers seeded radius queries by scanning the corpus sorted
// by latitude — no index, so it cannot share a bug with the R-tree.
type withinRef struct {
	entries []rtree.Entry // sorted by latitude
	queries []geo.Point
	counts  []int
	hashes  []uint64
}

func newWithinRef(fs *dfs.FileSystem, input string, queries int, seed int64) (*withinRef, error) {
	ref := &withinRef{}
	err := geolife.ForEachTrace(fs, []string{input}, func(t trace.Trace) error {
		ref.entries = append(ref.entries, rtree.Entry{ID: gepeto.TraceID(t), Point: t.Point})
		return nil
	})
	if err != nil {
		return nil, err
	}
	es := ref.entries
	sort.Slice(es, func(i, j int) bool { return es[i].Point.Lat < es[j].Point.Lat })
	// One degree of latitude is never shorter than 110 km, so this window
	// contains every point within the radius.
	const window = withinRadiusM / 110_000.0
	rng := rand.New(rand.NewSource(seed))
	for q := 0; q < queries; q++ {
		center := es[rng.Intn(len(es))].Point
		lo := sort.Search(len(es), func(i int) bool { return es[i].Point.Lat >= center.Lat-window })
		var hits []rtree.Entry
		for i := lo; i < len(es) && es[i].Point.Lat <= center.Lat+window; i++ {
			if geo.Haversine(center, es[i].Point) <= withinRadiusM {
				hits = append(hits, es[i])
			}
		}
		n, h := idSetHash(hits)
		ref.queries = append(ref.queries, center)
		ref.counts = append(ref.counts, n)
		ref.hashes = append(ref.hashes, h)
	}
	return ref, nil
}

// idSetHash hashes a query result as a set: the sum of its IDs' hashes,
// so neither side has to sort.
func idSetHash(entries []rtree.Entry) (int, uint64) {
	var sum uint64
	for _, e := range entries {
		h := fnv.New64a()
		h.Write([]byte(e.ID))
		sum += h.Sum64()
	}
	return len(entries), sum
}

// hashStrings hashes a cluster's member IDs in sorted order.
func hashStrings(ids []string) uint64 {
	sort.Strings(ids)
	h := fnv.New64a()
	for _, id := range ids {
		h.Write([]byte(id))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// poiOutcome is what one POI attack returned.
type poiOutcome struct {
	pois int
	res  *gepeto.DJClusterResult
}

// poiRef is the sequential attack: sample, preprocess, DJ-Cluster.
type poiRef struct {
	afterDedup int
	clusters   map[uint64]bool // member-set hashes
}

func poiReference(tk *core.Toolkit, _ sizing, _ int64) (any, error) {
	ds, err := tk.Download("data")
	if err != nil {
		return nil, err
	}
	opts := gepeto.DefaultDJClusterOptions()
	sampled := gepeto.SampleSequential(ds, time.Minute, gepeto.SampleUpperLimit)
	_, pre := gepeto.PreprocessSequential(sampled, opts.MaxSpeedKmh, opts.DupRadiusMeters)
	seq := gepeto.DJClusterSequential(pre, opts)
	ref := &poiRef{afterDedup: pre.NumTraces(), clusters: map[uint64]bool{}}
	for _, c := range seq.Clusters {
		ref.clusters[hashStrings(append([]string(nil), c.Members...))] = true
	}
	return ref, nil
}

// verifyPOIAttack compares cluster membership with the sequential
// attack. Exact equality is not attainable: the sampling and speed-
// filter mappers restart their per-user window at every chunk boundary
// (internal/gepeto's own tests document it), so the MapReduce run keeps
// a handful of extra traces — 11 of 80,747 at seed 1 — and the few
// clusters touching them differ. The check therefore allows one cluster
// in twenty (at least three) to differ and the preprocessed count to be
// off by one percent; the digest of the full membership must still
// repeat exactly across repetitions.
func verifyPOIAttack(ref, out any) (string, error) {
	got := out.(*poiOutcome)
	want := ref.(*poiRef)
	if got.pois == 0 || got.pois != len(got.res.Clusters) {
		return "", fmt.Errorf("poi-attack: %d POIs from %d clusters", got.pois, len(got.res.Clusters))
	}
	if d := abs(float64(got.res.AfterDedup) - float64(want.afterDedup)); d > 0.01*float64(want.afterDedup) {
		return "", fmt.Errorf("poi-attack: %d traces after preprocessing, sequential has %d", got.res.AfterDedup, want.afterDedup)
	}
	allowed := len(want.clusters) / 20
	if allowed < 3 {
		allowed = 3
	}
	if d := len(got.res.Clusters) - len(want.clusters); d > allowed || -d > allowed {
		return "", fmt.Errorf("poi-attack: %d clusters, sequential has %d", len(got.res.Clusters), len(want.clusters))
	}
	var digest strings.Builder
	fmt.Fprintf(&digest, "%d/%d/%d/%d", got.res.InputTraces, got.res.AfterSpeedFilter, got.res.AfterDedup, got.pois)
	differ := 0
	for _, c := range got.res.Clusters {
		h := hashStrings(append([]string(nil), c.Members...))
		if !want.clusters[h] {
			differ++
		}
		fmt.Fprintf(&digest, " %x", h)
	}
	if differ > allowed {
		return "", fmt.Errorf("poi-attack: %d of %d clusters have no identical sequential cluster (%d allowed)", differ, len(got.res.Clusters), allowed)
	}
	return digest.String(), nil
}
