package privacy

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/geo"
	"repro/internal/mapreduce"
	"repro/internal/recordio"
	"repro/internal/trace"
)

// The social-link discovery attack of §II: "Discover social relations
// between individuals, by considering that two individuals that are in
// contact during a non-negligible amount of time share some kind of
// social link (false positives may happen)." Contact is modelled as
// co-location: two users observed in the same spatial cell during the
// same time window. The attack counts distinct co-located windows per
// user pair and reports pairs above a threshold.

// SocialLink is one discovered relation.
type SocialLink struct {
	// UserA and UserB are the pair, with UserA < UserB.
	UserA, UserB string
	// SharedWindows is the number of distinct (cell, window) buckets
	// in which both users were observed.
	SharedWindows int
}

// SocialOptions parameterises the co-location attack.
type SocialOptions struct {
	// CellMeters is the co-location cell size (default 50 m).
	CellMeters float64
	// WindowSeconds is the temporal bucket (default 600 s).
	WindowSeconds int64
	// MinSharedWindows is the "non-negligible amount of time"
	// threshold: pairs sharing fewer buckets are dropped (default 3).
	MinSharedWindows int
}

func (o SocialOptions) withDefaults() SocialOptions {
	if o.CellMeters <= 0 {
		o.CellMeters = 50
	}
	if o.WindowSeconds <= 0 {
		o.WindowSeconds = 600
	}
	if o.MinSharedWindows <= 0 {
		o.MinSharedWindows = 3
	}
	return o
}

// colocationKey buckets a trace into a (cell, window) identifier.
func colocationKey(p geo.Point, unix int64, o SocialOptions) string {
	c := snapToGrid(p, o.CellMeters)
	return fmt.Sprintf("%.6f,%.6f@%d", c.Lat, c.Lon, unix/o.WindowSeconds)
}

// DiscoverSocialLinksSequential runs the attack in memory.
func DiscoverSocialLinksSequential(ds *trace.Dataset, opts SocialOptions) []SocialLink {
	opts = opts.withDefaults()
	// bucket -> set of users present.
	buckets := make(map[string]map[string]bool)
	for _, tr := range ds.Trails {
		for _, t := range tr.Traces {
			k := colocationKey(t.Point, t.Time.Unix(), opts)
			set, ok := buckets[k]
			if !ok {
				set = make(map[string]bool)
				buckets[k] = set
			}
			set[t.User] = true
		}
	}
	counts := make(map[[2]string]int)
	for _, set := range buckets {
		if len(set) < 2 {
			continue
		}
		users := make([]string, 0, len(set))
		for u := range set {
			users = append(users, u)
		}
		sort.Strings(users)
		for i := 0; i < len(users); i++ {
			for j := i + 1; j < len(users); j++ {
				counts[[2]string{users[i], users[j]}]++
			}
		}
	}
	var out []SocialLink
	for pair, n := range counts {
		if n >= opts.MinSharedWindows {
			out = append(out, SocialLink{UserA: pair[0], UserB: pair[1], SharedWindows: n})
		}
	}
	sortLinks(out)
	return out
}

func sortLinks(links []SocialLink) {
	sort.Slice(links, func(i, j int) bool {
		if links[i].SharedWindows != links[j].SharedWindows {
			return links[i].SharedWindows > links[j].SharedWindows
		}
		if links[i].UserA != links[j].UserA {
			return links[i].UserA < links[j].UserA
		}
		return links[i].UserB < links[j].UserB
	})
}

// Conf keys for the MapReduced attack.
const (
	confSocialCell   = "social.cell.meters"
	confSocialWindow = "social.window.seconds"
)

// DiscoverSocialLinksMR runs the attack as two chained MapReduce jobs:
//
//	job 1 — map: trace -> (cell@window, user); reduce: emit one
//	        (userA|userB, bucket) record per co-located pair per bucket;
//	job 2 — map: identity; reduce: count distinct buckets per pair.
//
// Intermediates are staged under workDir. Pairs below the threshold
// are filtered by the driver after job 2.
func DiscoverSocialLinksMR(e *mapreduce.Engine, inputPaths []string, workDir string, opts SocialOptions) ([]SocialLink, []*mapreduce.Result, error) {
	opts = opts.withDefaults()
	conf := map[string]string{
		confSocialCell:   strconv.FormatFloat(opts.CellMeters, 'f', -1, 64),
		confSocialWindow: strconv.FormatInt(opts.WindowSeconds, 10),
	}
	stage1 := workDir + "/colocated-pairs"
	stage2 := workDir + "/pair-counts"
	colocate, count := colocateKind, pairCountKind
	colocate.Name, colocate.InputPaths, colocate.OutputPath = "social-colocate", inputPaths, stage1
	count.Name, count.InputPaths, count.OutputPath = "social-count", []string{stage1}, stage2
	colocate.NumReducers, count.NumReducers = e.Cluster().TotalSlots(), e.Cluster().TotalSlots()
	colocate.Conf = conf
	results, err := e.RunPipeline(colocate.Build(), count.Build())
	if err != nil {
		return nil, results, err
	}
	var out []SocialLink
	err = mapreduce.ReadOutput(e, stage2, recordio.RawString{}, recordio.Int64{}, func(pair string, n int64) error {
		a, b, ok := strings.Cut(pair, "|")
		if !ok {
			return fmt.Errorf("privacy: bad pair key %q", pair)
		}
		if int(n) >= opts.MinSharedWindows {
			out = append(out, SocialLink{UserA: a, UserB: b, SharedWindows: int(n)})
		}
		return nil
	})
	if err != nil {
		return nil, results, err
	}
	sortLinks(out)
	return out, results, nil
}

// colocateJob is the typed shape of job 1: trace records in, (bucket,
// user) intermediates, one (userA|userB, bucket) record per co-located
// pair per bucket out.
type colocateJob = mapreduce.TypedJob[string, trace.Trace, string, string, string, string]

var colocateKind = mapreduce.Declare(colocateJob{
	Kind:        "privacy/social-colocate",
	Mapper:      func() mapreduce.TypedMapper[string, trace.Trace, string, string] { return &bucketMapper{} },
	Reducer:     func() mapreduce.TypedReducer[string, string, string, string] { return pairReducer{} },
	InputKey:    recordio.RawString{},
	InputValue:  recordio.TraceValue{},
	MapKey:      recordio.RawString{},
	MapValue:    recordio.RawString{},
	OutputKey:   recordio.RawString{},
	OutputValue: recordio.RawString{},
})

// pairCountJob is the typed shape of job 2: job 1's records in and
// through the shuffle unchanged, one (pair, distinct buckets) record
// per pair out.
type pairCountJob = mapreduce.TypedJob[string, string, string, string, string, int64]

var pairCountKind = mapreduce.Declare(pairCountJob{
	Kind: "privacy/social-count",
	Mapper: func() mapreduce.TypedMapper[string, string, string, string] {
		return mapreduce.TypedMapFunc[string, string, string, string](
			func(_ *mapreduce.TaskContext, pair, bucket string, emit mapreduce.TypedEmit[string, string]) error {
				emit(pair, bucket)
				return nil
			})
	},
	Reducer:     func() mapreduce.TypedReducer[string, string, string, int64] { return countDistinctReducer{} },
	InputKey:    recordio.RawString{},
	InputValue:  recordio.RawString{},
	MapKey:      recordio.RawString{},
	MapValue:    recordio.RawString{},
	OutputKey:   recordio.RawString{},
	OutputValue: recordio.Int64{},
})

// bucketMapper emits (cell@window, user) for every trace.
type bucketMapper struct {
	mapreduce.TypedMapperBase[string, string]
	opts SocialOptions
}

func (m *bucketMapper) Setup(ctx *mapreduce.TaskContext) error {
	cell, err := strconv.ParseFloat(ctx.ConfDefault(confSocialCell, "50"), 64)
	if err != nil || cell <= 0 {
		return fmt.Errorf("bucketMapper: bad cell: %v", err)
	}
	window, err := strconv.ParseInt(ctx.ConfDefault(confSocialWindow, "600"), 10, 64)
	if err != nil || window <= 0 {
		return fmt.Errorf("bucketMapper: bad window: %v", err)
	}
	m.opts = SocialOptions{CellMeters: cell, WindowSeconds: window}.withDefaults()
	return nil
}

func (m *bucketMapper) Map(_ *mapreduce.TaskContext, _ string, t trace.Trace, emit mapreduce.TypedEmit[string, string]) error {
	emit(colocationKey(t.Point, t.Time.Unix(), m.opts), t.User)
	return nil
}

// pairReducer receives all users observed in one bucket and emits one
// (userA|userB, bucket) record per distinct co-located pair.
type pairReducer struct {
	mapreduce.TypedReducerBase[string, string]
}

func (pairReducer) Reduce(_ *mapreduce.TaskContext, key string, values []string, emit mapreduce.TypedEmit[string, string]) error {
	set := make(map[string]bool, len(values))
	for _, u := range values {
		set[u] = true
	}
	if len(set) < 2 {
		return nil
	}
	users := make([]string, 0, len(set))
	for u := range set {
		users = append(users, u)
	}
	sort.Strings(users)
	for i := 0; i < len(users); i++ {
		for j := i + 1; j < len(users); j++ {
			emit(users[i]+"|"+users[j], key)
		}
	}
	return nil
}

// countDistinctReducer counts distinct values (buckets) per pair.
type countDistinctReducer struct {
	mapreduce.TypedReducerBase[string, int64]
}

func (countDistinctReducer) Reduce(_ *mapreduce.TaskContext, key string, values []string, emit mapreduce.TypedEmit[string, int64]) error {
	set := make(map[string]bool, len(values))
	for _, v := range values {
		set[v] = true
	}
	emit(key, int64(len(set)))
	return nil
}

// --- Home/work quasi-identifier attack (Golle & Partridge, cited in
// §II: "a combination of locations can play the role of a
// quasi-identifier if they characterize almost uniquely an individual
// in the same way as the combination of his first and last names"). ---

// HomeWorkPair is a user's home/work quasi-identifier.
type HomeWorkPair struct {
	User string
	Home geo.Point
	Work geo.Point
}

// HomeWorkPairs extracts the quasi-identifier of every user from
// labeled POIs (users lacking a home or work label are skipped).
func HomeWorkPairs(pois []POI) []HomeWorkPair {
	byUser := make(map[string]*HomeWorkPair)
	order := []string{}
	for _, p := range pois {
		hw, ok := byUser[p.User]
		if !ok {
			hw = &HomeWorkPair{User: p.User}
			byUser[p.User] = hw
			order = append(order, p.User)
		}
		switch p.Label {
		case LabelHome:
			hw.Home = p.Center
		case LabelWork:
			hw.Work = p.Center
		}
	}
	sort.Strings(order)
	var out []HomeWorkPair
	for _, u := range order {
		hw := byUser[u]
		if hw.Home != (geo.Point{}) && hw.Work != (geo.Point{}) {
			out = append(out, *hw)
		}
	}
	return out
}

// LinkByHomeWork matches each anonymous home/work pair to the known
// pair with the smallest combined distance, provided both endpoints
// are within matchRadius. truth maps pseudonym → true user for
// scoring. This is the linking attack of §II in its simplest form:
// the home/work pair alone de-anonymizes most individuals.
func LinkByHomeWork(known, anonymous []HomeWorkPair, matchRadius float64, truth map[string]string) *LinkingResult {
	res := &LinkingResult{Matches: make(map[string]string)}
	for _, anon := range anonymous {
		bestUser, bestDist := "", -1.0
		for _, k := range known {
			dh := geo.Haversine(anon.Home, k.Home)
			dw := geo.Haversine(anon.Work, k.Work)
			if dh > matchRadius || dw > matchRadius {
				continue
			}
			if d := dh + dw; bestDist < 0 || d < bestDist {
				bestDist, bestUser = d, k.User
			}
		}
		res.Matches[anon.User] = bestUser
		res.Total++
		if want, ok := truth[anon.User]; ok && want != "" && want == bestUser {
			res.Correct++
		}
	}
	return res
}
