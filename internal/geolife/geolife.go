// Package geolife generates synthetic GPS trajectory datasets with the
// statistical skeleton of the GeoLife corpus used in the paper's
// evaluation (§IV): per-user trails of dense mobility traces (one
// every few seconds) recorded in logging sessions around a set of
// personal points of interest (home, work, leisure) in the Beijing
// area, with realistic movement speeds and GPS jitter.
//
// The real GeoLife dataset (Zheng et al.) is proprietary-licensed and
// not redistributable here, so the generator is calibrated to
// reproduce the properties the paper's experiments depend on:
//
//   - volume: the paper178 preset yields exactly 2,033,686 traces
//     across 178 users (Table I's unsampled count) and paper90 yields
//     1,050,000 across 90 users (§VI's smaller subset);
//   - density: 3–6 s between consecutive traces, so down-sampling at
//     1/5/10-minute windows collapses the dataset by factors matching
//     Table I's shape (~13x / ~49x / ~86x);
//   - dwell structure: roughly half of logged time is stationary at a
//     POI, so DJ-Cluster's speed filter keeps ~55-60% of sampled
//     traces (Table IV's shape) and clusters form at true POIs,
//     giving inference attacks real ground truth to recover.
package geolife

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/dfs"
	"repro/internal/geo"
	"repro/internal/recordio"
	"repro/internal/trace"
)

// Beijing is the metropolitan bounding box traces are generated in,
// matching the real GeoLife collection area.
var Beijing = geo.Rect{
	Min: geo.Point{Lat: 39.70, Lon: 116.10},
	Max: geo.Point{Lat: 40.15, Lon: 116.75},
}

// Config parameterises the generator. Zero values are replaced by the
// defaults documented on each field.
type Config struct {
	// Users is the number of individuals (default 10).
	Users int
	// TotalTraces is the exact total number of traces to generate,
	// split across users with deterministic ±30% variation
	// (default 10_000).
	TotalTraces int
	// Seed drives all randomness; equal configs generate equal data.
	Seed int64
	// Start is the first day of collection (default 2008-04-01 UTC).
	Start time.Time
	// SampleMinSec and SampleMaxSec bound the interval between
	// consecutive traces in seconds (default 3 and 6, mean 4.5 — the
	// paper's "every 1 to 5 seconds" density).
	SampleMinSec, SampleMaxSec int
	// DwellMinSec and DwellMaxSec bound the stationary logging time
	// after arriving somewhere (default 300 and 780 s, so roughly
	// half of logged time is stationary, as Table IV's filter ratios
	// require).
	DwellMinSec, DwellMaxSec int
	// JitterMeters is the GPS noise scale (default 4 m).
	JitterMeters float64
}

func (c Config) withDefaults() Config {
	if c.Users <= 0 {
		c.Users = 10
	}
	if c.TotalTraces <= 0 {
		c.TotalTraces = 10_000
	}
	if c.Start.IsZero() {
		c.Start = time.Date(2008, time.April, 1, 0, 0, 0, 0, time.UTC)
	}
	if c.SampleMinSec <= 0 {
		c.SampleMinSec = 3
	}
	if c.SampleMaxSec < c.SampleMinSec {
		c.SampleMaxSec = c.SampleMinSec + 3
	}
	if c.DwellMinSec <= 0 {
		c.DwellMinSec = 300
	}
	if c.DwellMaxSec < c.DwellMinSec {
		c.DwellMaxSec = c.DwellMinSec + 480
	}
	if c.JitterMeters <= 0 {
		c.JitterMeters = 4
	}
	return c
}

// Paper178 is the full GeoLife-scale preset: 178 users and exactly
// 2,033,686 traces, the unsampled count in Table I ("128 MB" subset).
func Paper178(seed int64) Config {
	return Config{Users: 178, TotalTraces: 2_033_686, Seed: seed}
}

// Paper90 is the smaller evaluation subset from §VI: 90 users and
// 1,050,000 traces ("66 MB").
func Paper90(seed int64) Config {
	return Config{Users: 90, TotalTraces: 1_050_000, Seed: seed}
}

// Scaled returns the paper178 preset shrunk by the given factor (>1
// shrinks), preserving per-user trace density so sampling and
// preprocessing ratios still match the paper's shape.
func Scaled(seed int64, factor int) Config {
	if factor < 1 {
		factor = 1
	}
	users := 178 / factor
	if users < 1 {
		users = 1
	}
	return Config{Users: users, TotalTraces: 2_033_686 / factor, Seed: seed}
}

// GroundTruth records the hidden user model behind a generated
// dataset, used as reference when evaluating inference attacks.
type GroundTruth struct {
	// Homes and Works map user ID to the true home and work POI.
	Homes, Works map[string]geo.Point
	// Leisure maps user ID to the user's leisure POIs.
	Leisure map[string][]geo.Point
}

// POIs returns all of a user's true POIs (home, work, leisure).
func (g *GroundTruth) POIs(user string) []geo.Point {
	out := []geo.Point{g.Homes[user], g.Works[user]}
	return append(out, g.Leisure[user]...)
}

// Generate produces the dataset for the configuration.
func Generate(cfg Config) *trace.Dataset {
	ds, _ := GenerateWithTruth(cfg)
	return ds
}

// GenerateWithTruth produces the dataset plus the ground-truth user
// model that generated it.
func GenerateWithTruth(cfg Config) (*trace.Dataset, *GroundTruth) {
	cfg = cfg.withDefaults()
	truth := &GroundTruth{
		Homes:   make(map[string]geo.Point, cfg.Users),
		Works:   make(map[string]geo.Point, cfg.Users),
		Leisure: make(map[string][]geo.Point, cfg.Users),
	}
	quotas := userQuotas(cfg)
	ds := &trace.Dataset{Trails: make([]trace.Trail, 0, cfg.Users)}
	for u := 0; u < cfg.Users; u++ {
		user := fmt.Sprintf("%03d", u)
		rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(u)))
		g := newUserGen(cfg, user, rng)
		truth.Homes[user] = g.home
		truth.Works[user] = g.work
		truth.Leisure[user] = append([]geo.Point(nil), g.leisure...)
		ds.Trails = append(ds.Trails, g.trail(quotas[u]))
	}
	return ds, truth
}

// userQuotas splits TotalTraces across users with deterministic ±30%
// variation, summing exactly to the total.
func userQuotas(cfg Config) []int {
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))
	weights := make([]float64, cfg.Users)
	var sum float64
	for i := range weights {
		weights[i] = 0.7 + 0.6*rng.Float64()
		sum += weights[i]
	}
	quotas := make([]int, cfg.Users)
	assigned := 0
	for i := range weights {
		quotas[i] = int(float64(cfg.TotalTraces) * weights[i] / sum)
		assigned += quotas[i]
	}
	// Distribute the rounding remainder one trace at a time.
	for i := 0; assigned < cfg.TotalTraces; i = (i + 1) % cfg.Users {
		quotas[i]++
		assigned++
	}
	return quotas
}

// userGen generates one user's trail.
type userGen struct {
	cfg     Config
	user    string
	rng     *rand.Rand
	home    geo.Point
	work    geo.Point
	leisure []geo.Point
	speed   float64 // preferred travel speed, km/h
}

func newUserGen(cfg Config, user string, rng *rand.Rand) *userGen {
	g := &userGen{cfg: cfg, user: user, rng: rng}
	g.home = randPointIn(rng, Beijing)
	// Work 1.5-4.5 km from home.
	g.work = geo.Destination(g.home, rng.Float64()*360, 1500+rng.Float64()*3000)
	nLeisure := 2 + rng.Intn(3)
	for i := 0; i < nLeisure; i++ {
		g.leisure = append(g.leisure,
			geo.Destination(g.home, rng.Float64()*360, 500+rng.Float64()*3000))
	}
	// Travel mode: bike (~18 km/h), car (~40 km/h) or bus (~28 km/h).
	g.speed = []float64{18, 40, 28}[rng.Intn(3)]
	return g
}

// trail generates exactly quota traces for the user.
func (g *userGen) trail(quota int) trace.Trail {
	tr := trace.Trail{User: g.user, Traces: make([]trace.Trace, 0, quota)}
	day := g.cfg.Start
	for len(tr.Traces) < quota {
		g.generateDay(&tr, day, quota)
		day = day.AddDate(0, 0, 1)
	}
	return tr
}

// generateDay appends the logging sessions of one day: a morning
// commute home→work, an evening commute work→home, and (one day in
// three) an evening or weekend leisure round trip.
func (g *userGen) generateDay(tr *trace.Trail, day time.Time, quota int) {
	type plan struct {
		at       time.Duration // time of day
		from, to geo.Point
	}
	weekend := day.Weekday() == time.Saturday || day.Weekday() == time.Sunday
	var plans []plan
	if weekend {
		l := g.leisure[g.rng.Intn(len(g.leisure))]
		start := 10*time.Hour + time.Duration(g.rng.Intn(120))*time.Minute
		plans = append(plans,
			plan{start, g.home, l},
			plan{start + 3*time.Hour, l, g.home},
		)
	} else {
		plans = append(plans,
			plan{8*time.Hour + time.Duration(g.rng.Intn(90))*time.Minute, g.home, g.work},
			plan{18*time.Hour + time.Duration(g.rng.Intn(90))*time.Minute, g.work, g.home},
		)
		if g.rng.Intn(3) == 0 {
			l := g.leisure[g.rng.Intn(len(g.leisure))]
			plans = append(plans,
				plan{20*time.Hour + time.Duration(g.rng.Intn(60))*time.Minute, g.home, l},
			)
		}
	}
	for _, p := range plans {
		if len(tr.Traces) >= quota {
			return
		}
		g.session(tr, day.Add(p.at), p.from, p.to, quota)
	}
}

// session logs one trip from a to b followed by a stationary dwell at
// b — the GPS logger pattern behind GeoLife trajectories.
func (g *userGen) session(tr *trace.Trail, start time.Time, a, b geo.Point, quota int) {
	now := start
	emit := func(p geo.Point) bool {
		if len(tr.Traces) >= quota {
			return false
		}
		tr.Traces = append(tr.Traces, trace.Trace{
			User:         g.user,
			Point:        g.jitter(p),
			AltitudeFeet: 150 + float64(g.rng.Intn(60)),
			Time:         now,
		})
		now = now.Add(g.sampleInterval())
		return true
	}

	// Pre-departure dwell: the logger runs 1-3 minutes at the origin
	// before the trip starts (cold start, walking to the vehicle), so
	// session boundaries anchor at true POIs rather than mid-route.
	preEnd := now.Add(time.Duration(60+g.rng.Intn(121)) * time.Second)
	for now.Before(preEnd) {
		if !emit(a) {
			return
		}
	}

	// Moving segment: travel a→b at the user's speed ±20%, following
	// a slightly curved path.
	tripStart := now
	dist := geo.Haversine(a, b)
	speedMS := g.speed / 3.6 * (0.8 + 0.4*g.rng.Float64())
	duration := dist / speedMS
	bearingOffset := (g.rng.Float64() - 0.5) * 30 // path curvature
	elapsed := 0.0
	for elapsed < duration {
		frac := elapsed / duration
		p := interpolate(a, b, frac, bearingOffset)
		if !emit(p) {
			return
		}
		elapsed = now.Sub(tripStart).Seconds()
	}
	// Stationary dwell at the destination.
	dwell := time.Duration(g.cfg.DwellMinSec+g.rng.Intn(g.cfg.DwellMaxSec-g.cfg.DwellMinSec+1)) * time.Second
	dwellEnd := now.Add(dwell)
	for now.Before(dwellEnd) {
		if !emit(b) {
			return
		}
	}
}

func (g *userGen) sampleInterval() time.Duration {
	span := g.cfg.SampleMaxSec - g.cfg.SampleMinSec + 1
	return time.Duration(g.cfg.SampleMinSec+g.rng.Intn(span)) * time.Second
}

// jitter applies GPS noise to a true position.
func (g *userGen) jitter(p geo.Point) geo.Point {
	d := math.Abs(g.rng.NormFloat64()) * g.cfg.JitterMeters
	return geo.Destination(p, g.rng.Float64()*360, d)
}

// interpolate returns the point at fraction frac of the way from a to
// b, bowed sideways by a sinusoidal curvature (roads are not straight
// lines).
func interpolate(a, b geo.Point, frac, bearingOffset float64) geo.Point {
	lat := a.Lat + (b.Lat-a.Lat)*frac
	lon := a.Lon + (b.Lon-a.Lon)*frac
	mid := geo.Point{Lat: lat, Lon: lon}
	// Perpendicular displacement peaking mid-route.
	amp := geo.Haversine(a, b) * 0.05 * math.Sin(frac*math.Pi)
	if amp == 0 {
		return mid
	}
	return geo.Destination(mid, bearingOffset+90, amp)
}

func randPointIn(rng *rand.Rand, r geo.Rect) geo.Point {
	return geo.Point{
		Lat: r.Min.Lat + rng.Float64()*(r.Max.Lat-r.Min.Lat),
		Lon: r.Min.Lon + rng.Float64()*(r.Max.Lon-r.Min.Lon),
	}
}

// WriteRecords uploads the dataset into the DFS as line-oriented
// record files ("user TAB lat,lon,alt,unix"), one file per user under
// dir — the toolkit's MapReduce input layout, mirroring GeoLife's
// one-directory-per-user structure.
func WriteRecords(fs *dfs.FileSystem, dir string, ds *trace.Dataset) error {
	for i := range ds.Trails {
		tr := &ds.Trails[i]
		buf := make([]byte, 0, len(tr.Traces)*48)
		for _, t := range tr.Traces {
			buf = append(t.AppendRecord(buf), '\n')
		}
		path := fmt.Sprintf("%s/%s.rec", dir, tr.User)
		if err := fs.Create(path, buf, ""); err != nil {
			return fmt.Errorf("geolife: uploading %s: %v", path, err)
		}
	}
	return nil
}

// WriteRecordsConcat uploads the dataset as numFiles large record
// files instead of one file per user. Used by the benchmark harness so
// the DFS chunk size (not the per-user file boundaries) determines the
// number of map tasks, as in the paper's single-directory uploads.
func WriteRecordsConcat(fs *dfs.FileSystem, dir string, ds *trace.Dataset, numFiles int) error {
	if numFiles < 1 {
		numFiles = 1
	}
	bufs := make([][]byte, numFiles)
	total := ds.NumTraces()
	perFile := (total + numFiles - 1) / numFiles
	i := 0
	for _, tr := range ds.Trails {
		for _, t := range tr.Traces {
			b := &bufs[i/perFile]
			*b = append(t.AppendRecord(*b), '\n')
			i++
		}
	}
	for f := 0; f < numFiles; f++ {
		path := fmt.Sprintf("%s/part-%03d.rec", dir, f)
		if err := fs.Create(path, bufs[f], ""); err != nil {
			return fmt.Errorf("geolife: uploading %s: %v", path, err)
		}
	}
	return nil
}

// ReadRecords reads a record directory written by WriteRecords or by a
// MapReduce job back into a dataset. Files are sniffed per file: both
// text record files ("user TAB lat,lon,alt,unix" lines) and binary
// recordio part files are accepted, so text uploads and binary job
// outputs read the same.
func ReadRecords(fs *dfs.FileSystem, dir string) (*trace.Dataset, error) {
	var traces []trace.Trace
	err := ForEachTrace(fs, []string{dir}, func(t trace.Trace) error {
		traces = append(traces, t)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return trace.FromTraces(traces), nil
}

// ForEachTrace streams every trace stored under the given paths (files
// or directories) in file order, sniffing the format of each file. It
// is ForEachRecord with every record decoded: the loop behind
// ReadRecords and the driver-side passes that need every point
// (k-means++ seeding), and a record that does not decode fails it with
// its file's name. Uniform k-means seeding needs only the
// ~k·(1+ln(N/k)) records its reservoir takes, so it walks
// ForEachRecord instead and leaves a malformed record it passes over
// to iteration 0's map, which decodes every record.
func ForEachTrace(fs *dfs.FileSystem, paths []string, fn func(trace.Trace) error) error {
	return ForEachRecord(fs, paths, decoding(fn))
}

// decoding turns a trace callback into a record callback.
func decoding(fn func(trace.Trace) error) func(rec []byte) error {
	return func(rec []byte) error {
		t, err := recordio.DecodeTraceValue(string(rec))
		if err != nil {
			return err
		}
		return fn(t)
	}
}

// ForEachRecord walks the undecoded trace records stored under the
// given paths in the order ForEachTrace yields them. Paths resolve as
// a job's input paths do (see dfs.FileSystem.Expand), and each file is
// scanned whole by the scanner the engine reads its splits with: the
// value of every record of a binary record file, every non-empty line
// of a text file less its line end. rec is a view of the file's bytes,
// valid only during the call; a walk that decodes few of the records
// it counts (k-means' reservoir) pays one read of the corpus and
// almost nothing per record.
func ForEachRecord(fs *dfs.FileSystem, paths []string, fn func(rec []byte) error) error {
	files, err := fs.Expand(paths)
	if err != nil {
		return fmt.Errorf("geolife: %v", err)
	}
	for _, f := range files {
		data, err := fs.ReadAll(f)
		if err != nil {
			return err
		}
		if err := scanFile(data, fn); err != nil {
			return fmt.Errorf("geolife: %s: %v", f, err)
		}
	}
	return nil
}

// scanFile calls fn on the value of every record of a whole file.
func scanFile(data []byte, fn func(rec []byte) error) error {
	scan, _ := recordio.ScannerFor(data)
	return scan(data, 0, 0, int64(len(data)), false, func(_, value []byte) error { return fn(value) })
}
