package privacy

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/geo"
	"repro/internal/gepeto"
	"repro/internal/mapreduce"
	"repro/internal/trace"
)

// Sanitizer transforms a dataset to reduce its privacy risk. The
// paper's conclusion (§VIII) lists the mechanisms GEPETO integrates:
// geographical masks that add random noise, aggregation of several
// traces into a single coordinate, spatial cloaking, and mix zones.
type Sanitizer interface {
	// Name identifies the mechanism (for reports and CLI flags).
	Name() string
	// Sanitize returns a sanitized copy of the dataset.
	Sanitize(ds *trace.Dataset) *trace.Dataset
}

// GaussianMask perturbs every coordinate with Gaussian noise — the
// "geographical masks that modify the spatial coordinate of a mobility
// trace by adding some random noise" of §VIII.
type GaussianMask struct {
	// SigmaMeters is the noise scale.
	SigmaMeters float64
	// Seed makes the perturbation reproducible.
	Seed int64
}

// Name implements Sanitizer.
func (g GaussianMask) Name() string { return fmt.Sprintf("gaussian-%.0fm", g.SigmaMeters) }

// Sanitize implements Sanitizer.
func (g GaussianMask) Sanitize(ds *trace.Dataset) *trace.Dataset {
	rng := rand.New(rand.NewSource(g.Seed))
	out := &trace.Dataset{Trails: make([]trace.Trail, len(ds.Trails))}
	for i, tr := range ds.Trails {
		nt := trace.Trail{User: tr.User, Traces: make([]trace.Trace, len(tr.Traces))}
		for j, t := range tr.Traces {
			d := math.Abs(rng.NormFloat64()) * g.SigmaMeters
			t.Point = geo.Destination(t.Point, rng.Float64()*360, d)
			nt.Traces[j] = t
		}
		out.Trails[i] = nt
	}
	return out
}

// SpatialCloaking generalises coordinates to the center of a grid
// cell, a classic k-anonymity-style cloaking technique (Gruteser &
// Grunwald, referenced in §VIII).
type SpatialCloaking struct {
	// CellMeters is the (approximate) grid cell edge length.
	CellMeters float64
}

// Name implements Sanitizer.
func (s SpatialCloaking) Name() string { return fmt.Sprintf("cloak-%.0fm", s.CellMeters) }

// Sanitize implements Sanitizer.
func (s SpatialCloaking) Sanitize(ds *trace.Dataset) *trace.Dataset {
	out := &trace.Dataset{Trails: make([]trace.Trail, len(ds.Trails))}
	for i, tr := range ds.Trails {
		nt := trace.Trail{User: tr.User, Traces: make([]trace.Trace, len(tr.Traces))}
		for j, t := range tr.Traces {
			t.Point = snapToGrid(t.Point, s.CellMeters)
			nt.Traces[j] = t
		}
		out.Trails[i] = nt
	}
	return out
}

// snapToGrid maps p to the center of its grid cell of the given edge
// length. The longitude cell width is derived from the snapped
// latitude row (not the raw latitude) so every point of a cell snaps
// to exactly the same center.
func snapToGrid(p geo.Point, cellMeters float64) geo.Point {
	dLat := cellMeters / geo.EarthRadiusMeters * 180 / math.Pi
	latSnapped := (math.Floor(p.Lat/dLat) + 0.5) * dLat
	cos := math.Cos(latSnapped * math.Pi / 180)
	if cos < 1e-9 {
		cos = 1e-9
	}
	dLon := dLat / cos
	return geo.Point{
		Lat: latSnapped,
		Lon: (math.Floor(p.Lon/dLon) + 0.5) * dLon,
	}
}

// TemporalAggregation merges all traces inside a time window into one
// trace at their mean coordinate — "aggregate several mobility traces
// into a single spatial coordinate" (§VIII). Unlike down-sampling
// (which picks a representative), aggregation outputs the centroid.
type TemporalAggregation struct {
	// Window is the aggregation window.
	Window time.Duration
}

// Name implements Sanitizer.
func (a TemporalAggregation) Name() string {
	return fmt.Sprintf("aggregate-%s", a.Window)
}

// Sanitize implements Sanitizer.
func (a TemporalAggregation) Sanitize(ds *trace.Dataset) *trace.Dataset {
	w := int64(a.Window.Seconds())
	if w <= 0 {
		w = 60
	}
	out := &trace.Dataset{}
	for _, tr := range ds.Trails {
		nt := trace.Trail{User: tr.User}
		flush := func(lat, lon float64, n int, reprTime time.Time, alt float64) {
			if n == 0 {
				return
			}
			nt.Traces = append(nt.Traces, trace.Trace{
				User:         tr.User,
				Point:        geo.Point{Lat: lat / float64(n), Lon: lon / float64(n)},
				Time:         reprTime,
				AltitudeFeet: alt,
			})
		}
		var lat, lon, alt float64
		var n int
		cur := int64(math.MinInt64)
		var reprTime time.Time
		for _, t := range tr.Traces {
			win := t.Time.Unix() / w
			if win != cur {
				flush(lat, lon, n, reprTime, alt)
				cur, lat, lon, alt, n = win, 0, 0, 0, 0
				reprTime = t.Time
			}
			lat += t.Point.Lat
			lon += t.Point.Lon
			alt = t.AltitudeFeet
			n++
		}
		flush(lat, lon, n, reprTime, alt)
		out.Trails = append(out.Trails, nt)
	}
	return out
}

// MixZones suppresses all traces inside the given zones and changes
// the user's pseudonym after each zone crossing (Beresford & Stajano,
// referenced in §VIII): an adversary can no longer follow one
// pseudonym through a zone.
type MixZones struct {
	// Centers are the mix-zone centers.
	Centers []geo.Point
	// RadiusMeters is each zone's radius.
	RadiusMeters float64
}

// Name implements Sanitizer.
func (m MixZones) Name() string {
	return fmt.Sprintf("mixzones-%d-%.0fm", len(m.Centers), m.RadiusMeters)
}

// Sanitize implements Sanitizer.
func (m MixZones) Sanitize(ds *trace.Dataset) *trace.Dataset {
	out := &trace.Dataset{}
	for _, tr := range ds.Trails {
		epoch := 0
		inside := false
		cur := trace.Trail{User: pseudonym(tr.User, 0)}
		for _, t := range tr.Traces {
			inZone := false
			for _, c := range m.Centers {
				if geo.Haversine(t.Point, c) <= m.RadiusMeters {
					inZone = true
					break
				}
			}
			if inZone {
				// Suppress the trace; on exit the pseudonym changes.
				inside = true
				continue
			}
			if inside {
				inside = false
				epoch++
				if len(cur.Traces) > 0 {
					out.Trails = append(out.Trails, cur)
				}
				cur = trace.Trail{User: pseudonym(tr.User, epoch)}
			}
			t.User = cur.User
			cur.Traces = append(cur.Traces, t)
		}
		if len(cur.Traces) > 0 {
			out.Trails = append(out.Trails, cur)
		}
	}
	return out
}

func pseudonym(user string, epoch int) string {
	return user + "~" + strconv.Itoa(epoch)
}

// Pseudonymize replaces user identifiers with opaque pseudonyms
// ("a pseudonym is generally used as a first protection mechanism",
// §II). It returns the sanitized dataset and the pseudonym → user
// mapping (the secret an adversary tries to re-learn).
func Pseudonymize(ds *trace.Dataset, seed int64) (*trace.Dataset, map[string]string) {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(ds.Trails))
	out := &trace.Dataset{Trails: make([]trace.Trail, len(ds.Trails))}
	mapping := make(map[string]string, len(ds.Trails))
	for i, tr := range ds.Trails {
		pseud := fmt.Sprintf("anon-%03d", perm[i])
		mapping[pseud] = tr.User
		nt := trace.Trail{User: pseud, Traces: make([]trace.Trace, len(tr.Traces))}
		for j, t := range tr.Traces {
			t.User = pseud
			nt.Traces[j] = t
		}
		out.Trails[i] = nt
	}
	return out, mapping
}

// --- MapReduced sanitization (the §VIII extension, built as map-only
// jobs like sampling). ---

const (
	confMaskSigma = "sanitize.gaussian.sigma"
	confMaskSeed  = "sanitize.seed"
	confCloakCell = "sanitize.cloak.cell"
)

// GaussianMaskJob builds a map-only job applying GaussianMask to
// record files — the MapReduced geographical mask of §VIII.
func GaussianMaskJob(name string, inputPaths []string, outputPath string, sigmaMeters float64, seed int64) *mapreduce.Job {
	return gepeto.BuildTraceFilter(maskKind, name, inputPaths, outputPath, map[string]string{
		confMaskSigma: strconv.FormatFloat(sigmaMeters, 'f', -1, 64),
		confMaskSeed:  strconv.FormatInt(seed, 10),
	})
}

var maskKind = gepeto.DeclareTraceFilter("privacy/gaussian-mask", func() gepeto.TraceMapper { return &maskMapper{} })

type maskMapper struct {
	mapreduce.TypedMapperBase[string, trace.Trace]
	sigma float64
	rng   *rand.Rand
}

func (m *maskMapper) Setup(ctx *mapreduce.TaskContext) error {
	var err error
	m.sigma, err = strconv.ParseFloat(ctx.ConfDefault(confMaskSigma, "50"), 64)
	if err != nil || m.sigma < 0 {
		return fmt.Errorf("maskMapper: bad sigma: %v", err)
	}
	seed, err := strconv.ParseInt(ctx.ConfDefault(confMaskSeed, "0"), 10, 64)
	if err != nil {
		return fmt.Errorf("maskMapper: bad seed: %v", err)
	}
	// Derive a per-task stream so parallel tasks perturb independently
	// yet deterministically.
	h := fnv.New32a()
	h.Write([]byte(ctx.TaskID))
	m.rng = rand.New(rand.NewSource(seed ^ int64(h.Sum32())))
	return nil
}

func (m *maskMapper) Map(_ *mapreduce.TaskContext, _ string, t trace.Trace, emit mapreduce.TypedEmit[string, trace.Trace]) error {
	d := math.Abs(m.rng.NormFloat64()) * m.sigma
	t.Point = geo.Destination(t.Point, m.rng.Float64()*360, d)
	emit(t.User, t)
	return nil
}

// CloakingJob builds a map-only job applying SpatialCloaking to record
// files.
func CloakingJob(name string, inputPaths []string, outputPath string, cellMeters float64) *mapreduce.Job {
	return gepeto.BuildTraceFilter(cloakKind, name, inputPaths, outputPath,
		map[string]string{confCloakCell: strconv.FormatFloat(cellMeters, 'f', -1, 64)})
}

var cloakKind = gepeto.DeclareTraceFilter("privacy/cloaking", func() gepeto.TraceMapper { return &cloakMapper{} })

type cloakMapper struct {
	mapreduce.TypedMapperBase[string, trace.Trace]
	cell float64
}

func (m *cloakMapper) Setup(ctx *mapreduce.TaskContext) error {
	var err error
	m.cell, err = strconv.ParseFloat(ctx.ConfDefault(confCloakCell, "200"), 64)
	if err != nil || m.cell <= 0 {
		return fmt.Errorf("cloakMapper: bad cell: %v", err)
	}
	return nil
}

func (m *cloakMapper) Map(_ *mapreduce.TaskContext, _ string, t trace.Trace, emit mapreduce.TypedEmit[string, trace.Trace]) error {
	t.Point = snapToGrid(t.Point, m.cell)
	emit(t.User, t)
	return nil
}
