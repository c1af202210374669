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

// The §VIII extension, realised: "we want to develop algorithms for
// learning a mobility model out of the mobility traces of an
// individual, such as Mobility Markov Chains", inside the MapReduced
// framework. One job builds every user's MMC in parallel: mappers
// route traces to their user's reducer, and each reducer sorts its
// user's traces chronologically, attaches them to the user's POIs
// (shipped via the distributed cache) and emits the serialized chain.

const (
	cachePOIs       = "user-pois"
	confAttachRadiu = "mmc.attach.radius"
)

// MarshalMMC renders a chain on one line:
// "user|lat,lon;lat,lon|v0,v1|p00,p01;p10,p11".
func MarshalMMC(m *MMC) string {
	states := make([]string, len(m.States))
	for i, s := range m.States {
		states[i] = fmt.Sprintf("%.6f,%.6f", s.Lat, s.Lon)
	}
	visits := make([]string, len(m.Visits))
	for i, v := range m.Visits {
		visits[i] = strconv.Itoa(v)
	}
	rows := make([]string, len(m.Trans))
	for i, row := range m.Trans {
		cells := make([]string, len(row))
		for j, p := range row {
			cells[j] = strconv.FormatFloat(p, 'g', 8, 64)
		}
		rows[i] = strings.Join(cells, ",")
	}
	return m.User + "|" + strings.Join(states, ";") + "|" +
		strings.Join(visits, ",") + "|" + strings.Join(rows, ";")
}

// UnmarshalMMC parses MarshalMMC's output.
func UnmarshalMMC(s string) (*MMC, error) {
	parts := strings.Split(s, "|")
	if len(parts) != 4 {
		return nil, fmt.Errorf("privacy: MMC has %d sections, want 4: %q", len(parts), s)
	}
	m := &MMC{User: parts[0]}
	if parts[1] == "" {
		// A chain with no states (user had no attachable traces).
		return m, nil
	}
	for _, f := range strings.Split(parts[1], ";") {
		latS, lonS, ok := strings.Cut(f, ",")
		if !ok {
			return nil, fmt.Errorf("privacy: bad MMC state %q", f)
		}
		lat, err := strconv.ParseFloat(latS, 64)
		if err != nil {
			return nil, err
		}
		lon, err := strconv.ParseFloat(lonS, 64)
		if err != nil {
			return nil, err
		}
		m.States = append(m.States, geo.Point{Lat: lat, Lon: lon})
	}
	for _, f := range strings.Split(parts[2], ",") {
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("privacy: bad MMC visit count %q", f)
		}
		m.Visits = append(m.Visits, v)
	}
	for _, rowS := range strings.Split(parts[3], ";") {
		var row []float64
		for _, cell := range strings.Split(rowS, ",") {
			p, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return nil, fmt.Errorf("privacy: bad MMC transition %q", cell)
			}
			row = append(row, p)
		}
		m.Trans = append(m.Trans, row)
	}
	n := len(m.States)
	if len(m.Visits) != n || len(m.Trans) != n {
		return nil, fmt.Errorf("privacy: inconsistent MMC dimensions %d/%d/%d", n, len(m.Visits), len(m.Trans))
	}
	for _, row := range m.Trans {
		if len(row) != n {
			return nil, fmt.Errorf("privacy: ragged MMC transition matrix")
		}
	}
	return m, nil
}

// MarshalUserPOIs renders the distributed-cache blob mapping each user
// to its POI centers.
func MarshalUserPOIs(pois map[string][]geo.Point) []byte {
	users := make([]string, 0, len(pois))
	for u := range pois {
		users = append(users, u)
	}
	sort.Strings(users)
	var sb strings.Builder
	for _, u := range users {
		pts := make([]string, len(pois[u]))
		for i, p := range pois[u] {
			pts[i] = fmt.Sprintf("%.6f,%.6f", p.Lat, p.Lon)
		}
		sb.WriteString(u)
		sb.WriteByte('\t')
		sb.WriteString(strings.Join(pts, ";"))
		sb.WriteByte('\n')
	}
	return []byte(sb.String())
}

// UnmarshalUserPOIs parses MarshalUserPOIs's output.
func UnmarshalUserPOIs(blob []byte) (map[string][]geo.Point, error) {
	out := make(map[string][]geo.Point)
	for _, line := range strings.Split(strings.TrimSpace(string(blob)), "\n") {
		if line == "" {
			continue
		}
		user, rest, ok := strings.Cut(line, "\t")
		if !ok {
			return nil, fmt.Errorf("privacy: bad POI cache line %q", line)
		}
		for _, f := range strings.Split(rest, ";") {
			latS, lonS, ok := strings.Cut(f, ",")
			if !ok {
				return nil, fmt.Errorf("privacy: bad POI %q", f)
			}
			lat, err := strconv.ParseFloat(latS, 64)
			if err != nil {
				return nil, err
			}
			lon, err := strconv.ParseFloat(lonS, 64)
			if err != nil {
				return nil, err
			}
			out[user] = append(out[user], geo.Point{Lat: lat, Lon: lon})
		}
	}
	return out, nil
}

// BuildMMCsMR learns every user's Mobility Markov Chain in one
// MapReduce job. userPOIs (typically DJ-Cluster centroids per user)
// ride in the distributed cache; reducers key on the user so each
// chain is built by a single task from all of that user's traces.
func BuildMMCsMR(e *mapreduce.Engine, inputPaths []string, outputPath string, userPOIs map[string][]geo.Point, attachRadius float64) (map[string]*MMC, *mapreduce.Result, error) {
	if attachRadius <= 0 {
		attachRadius = 50
	}
	tj := mmcBuildKind
	tj.Name = "mmc-build"
	tj.InputPaths = inputPaths
	tj.OutputPath = outputPath
	tj.NumReducers = e.Cluster().TotalSlots()
	tj.Conf = map[string]string{confAttachRadiu: strconv.FormatFloat(attachRadius, 'f', -1, 64)}
	tj.Cache = map[string][]byte{cachePOIs: MarshalUserPOIs(userPOIs)}
	res, err := e.Run(tj.Build())
	if err != nil {
		return nil, nil, err
	}
	out := make(map[string]*MMC)
	err = mapreduce.ReadOutput(e, outputPath, recordio.RawString{}, recordio.RawString{}, func(_, chain string) error {
		m, err := UnmarshalMMC(chain)
		if err != nil {
			return err
		}
		out[m.User] = m
		return nil
	})
	if err != nil {
		return nil, res, err
	}
	return out, res, nil
}

// mmcBuildJob is the typed shape of the chain builder: trace records
// in, (user, timestamped position) intermediates, one (user,
// serialized chain) record per user out.
type mmcBuildJob = mapreduce.TypedJob[string, trace.Trace, string, recordio.TimedPoint, string, string]

var mmcBuildKind = mapreduce.Declare(mmcBuildJob{
	Kind: "privacy/mmc-build",
	Mapper: func() mapreduce.TypedMapper[string, trace.Trace, string, recordio.TimedPoint] {
		return mmcRouteMapper{}
	},
	Reducer: func() mapreduce.TypedReducer[string, recordio.TimedPoint, string, string] {
		return &mmcBuildReducer{}
	},
	InputKey:    recordio.RawString{},
	InputValue:  recordio.TraceValue{},
	MapKey:      recordio.RawString{},
	MapValue:    recordio.TimedPointCodec{},
	OutputKey:   recordio.RawString{},
	OutputValue: recordio.RawString{},
})

// mmcRouteMapper routes each trace to its user's reducer as a
// timestamped position.
type mmcRouteMapper struct {
	mapreduce.TypedMapperBase[string, recordio.TimedPoint]
}

func (mmcRouteMapper) Map(_ *mapreduce.TaskContext, _ string, t trace.Trace, emit mapreduce.TypedEmit[string, recordio.TimedPoint]) error {
	emit(t.User, recordio.TimedPoint{Unix: t.Time.Unix(), P: t.Point})
	return nil
}

// mmcBuildReducer rebuilds one user's chronological trail and its MMC.
type mmcBuildReducer struct {
	mapreduce.TypedReducerBase[string, string]
	pois   map[string][]geo.Point
	radius float64
}

func (r *mmcBuildReducer) Setup(ctx *mapreduce.TaskContext) error {
	blob, ok := ctx.CacheFile(cachePOIs)
	if !ok {
		return fmt.Errorf("mmcBuildReducer: POI cache missing")
	}
	var err error
	r.pois, err = UnmarshalUserPOIs(blob)
	if err != nil {
		return err
	}
	r.radius, err = strconv.ParseFloat(ctx.ConfDefault(confAttachRadiu, "50"), 64)
	return err
}

func (r *mmcBuildReducer) Reduce(ctx *mapreduce.TaskContext, user string, values []recordio.TimedPoint, emit mapreduce.TypedEmit[string, string]) error {
	pois, ok := r.pois[user]
	if !ok || len(pois) == 0 {
		ctx.Counter("mmc", "users_without_pois").Inc(1)
		return nil
	}
	events := append([]recordio.TimedPoint(nil), values...)
	// The shuffle does not preserve temporal order: sort.
	sort.Slice(events, func(i, j int) bool { return events[i].Unix < events[j].Unix })

	// Replay the BuildMMC attachment/transition logic.
	n := len(pois)
	visits := make([]int, n)
	counts := make([][]float64, n)
	for i := range counts {
		counts[i] = make([]float64, n)
	}
	prev := -1
	for _, e := range events {
		state, best := -1, r.radius
		for i, s := range pois {
			if d := geo.Haversine(e.P, s); d <= best {
				best, state = d, i
			}
		}
		if state < 0 {
			continue
		}
		visits[state]++
		if prev >= 0 && prev != state {
			counts[prev][state]++
		}
		prev = state
	}
	m := assembleMMC(user, pois, visits, counts)
	ctx.Counter("mmc", "chains_built").Inc(1)
	emit(user, MarshalMMC(m))
	return nil
}

// assembleMMC applies the same pruning and normalisation as BuildMMC.
func assembleMMC(user string, pois []geo.Point, visits []int, counts [][]float64) *MMC {
	keep := make([]int, 0, len(pois))
	for i, v := range visits {
		if v > 0 {
			keep = append(keep, i)
		}
	}
	m := &MMC{
		User:   user,
		States: make([]geo.Point, len(keep)),
		Visits: make([]int, len(keep)),
		Trans:  make([][]float64, len(keep)),
	}
	for ni, oi := range keep {
		m.States[ni] = pois[oi]
		m.Visits[ni] = visits[oi]
		m.Trans[ni] = make([]float64, len(keep))
		var rowSum float64
		for _, oj := range keep {
			rowSum += counts[oi][oj]
		}
		if rowSum == 0 {
			m.Trans[ni][ni] = 1
			continue
		}
		for nj, oj := range keep {
			m.Trans[ni][nj] = counts[oi][oj] / rowSum
		}
	}
	return m
}
