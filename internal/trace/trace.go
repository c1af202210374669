// Package trace defines the mobility-trace data model used by GEPETO
// (paper §II) and implements the GeoLife PLT on-disk format (paper
// Fig. 1).
//
// A mobility trace is characterised by an identifier (device or
// pseudonym), a spatial coordinate, and a timestamp, optionally with
// additional information such as altitude. A trail of traces is the
// ordered movement record of one individual; a geolocated dataset is a
// set of trails from different individuals.
package trace

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/geo"
)

// Trace is a single mobility trace: one timestamped position of one
// identifier, mirroring the record structure of GeoLife logs (Fig. 1 of
// the paper: latitude, longitude, a meaningless third field, altitude,
// fractional days since 1899-12-30, and date and time strings).
type Trace struct {
	// User identifies the individual (GeoLife directory name, e.g.
	// "000"). It may be a pseudonym or "unknown" for full anonymity.
	User string
	// Point is the spatial coordinate in decimal degrees.
	Point geo.Point
	// AltitudeFeet is the reported altitude in feet (GeoLife uses
	// feet; -777 denotes an invalid reading in the real dataset).
	AltitudeFeet float64
	// Time is the timestamp of the observation (UTC in GeoLife).
	Time time.Time
}

// geoLifeEpoch is the spreadsheet epoch GeoLife's fifth field counts
// fractional days from (1899-12-30, the Excel/Lotus day-zero).
var geoLifeEpoch = time.Date(1899, time.December, 30, 0, 0, 0, 0, time.UTC)

// DaysSinceEpoch returns the GeoLife fifth field: the number of days,
// with fractional part, elapsed since 1899-12-30.
func (t Trace) DaysSinceEpoch() float64 {
	return t.Time.Sub(geoLifeEpoch).Seconds() / 86400
}

// PLTLine renders the trace as one line of a GeoLife .plt file:
//
//	39.906631,116.385564,0,492,39745.090266,2008-10-24,02:09:59
func (t Trace) PLTLine() string {
	return fmt.Sprintf("%.6f,%.6f,0,%g,%.6f,%s,%s",
		t.Point.Lat, t.Point.Lon, t.AltitudeFeet,
		t.DaysSinceEpoch(),
		t.Time.Format("2006-01-02"), t.Time.Format("15:04:05"))
}

// ParsePLTLine parses one GeoLife .plt record line into a Trace for the
// given user. The timestamp is taken from the date and time string
// fields (sixth and seventh), which the paper identifies as the
// authoritative timestamp of the trace.
func ParsePLTLine(user, line string) (Trace, error) {
	fields := strings.Split(strings.TrimSpace(line), ",")
	if len(fields) != 7 {
		return Trace{}, fmt.Errorf("trace: PLT line has %d fields, want 7: %q", len(fields), line)
	}
	lat, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return Trace{}, fmt.Errorf("trace: bad latitude %q: %v", fields[0], err)
	}
	lon, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return Trace{}, fmt.Errorf("trace: bad longitude %q: %v", fields[1], err)
	}
	alt, err := strconv.ParseFloat(fields[3], 64)
	if err != nil {
		return Trace{}, fmt.Errorf("trace: bad altitude %q: %v", fields[3], err)
	}
	ts, err := time.Parse("2006-01-02 15:04:05", fields[5]+" "+fields[6])
	if err != nil {
		return Trace{}, fmt.Errorf("trace: bad timestamp %q %q: %v", fields[5], fields[6], err)
	}
	p := geo.Point{Lat: lat, Lon: lon}
	if !p.Valid() {
		return Trace{}, fmt.Errorf("trace: coordinate out of range: %v", p)
	}
	return Trace{User: user, Point: p, AltitudeFeet: alt, Time: ts}, nil
}

// Record renders the trace in the toolkit's internal key-value record
// form "user\tlat,lon,alt,unix" used as MapReduce values. It is more
// compact than PLT and embeds the user, so a record is self-contained
// once chunked.
func (t Trace) Record() string {
	var buf [64]byte // most records fit: no allocation but the string's
	return string(t.AppendRecord(buf[:0]))
}

// AppendRecord appends the Record form of t to dst: the bytes of
// fmt's "%s\t%.6f,%.6f,%g,%d", without fmt.
func (t Trace) AppendRecord(dst []byte) []byte {
	dst = append(append(dst, t.User...), '\t')
	dst = append(strconv.AppendFloat(dst, t.Point.Lat, 'f', 6, 64), ',')
	dst = append(strconv.AppendFloat(dst, t.Point.Lon, 'f', 6, 64), ',')
	dst = append(strconv.AppendFloat(dst, t.AltitudeFeet, 'g', -1, 64), ',')
	return strconv.AppendInt(dst, t.Time.Unix(), 10)
}

// ParseRecord parses the internal record form produced by Record. It
// rejects a coordinate out of range and a NaN altitude, as ParsePLTLine
// and the binary trace codec do. The returned User aliases rec.
//
// A record whose value fields are plain decimals, as Record writes
// them, is parsed in one pass that allocates nothing. Any other goes
// through parseFields, whose values and errors are strconv's.
func ParseRecord(rec string) (Trace, error) {
	user, rest, ok := strings.Cut(rec, "\t")
	if !ok {
		return Trace{}, fmt.Errorf("trace: record missing tab: %q", rec)
	}
	lat, r, ok0 := decimalField(rest)
	lon, r, ok1 := decimalField(r)
	alt, r, ok2 := decimalField(r)
	unix, ok3 := intField(r)
	if !ok0 || !ok1 || !ok2 || !ok3 {
		var err error
		if lat, lon, alt, unix, err = parseFields(rec, rest); err != nil {
			return Trace{}, err
		}
	}
	p := geo.Point{Lat: lat, Lon: lon}
	if !p.Valid() {
		return Trace{}, fmt.Errorf("trace: coordinate out of range in record %q", rec)
	}
	if math.IsNaN(alt) {
		return Trace{}, fmt.Errorf("trace: NaN altitude in record %q", rec)
	}
	return Trace{
		User:         user,
		Point:        p,
		AltitudeFeet: alt,
		Time:         time.Unix(unix, 0).UTC(),
	}, nil
}

// parseFields parses a record's "lat,lon,alt,unix" with strconv.
func parseFields(rec, rest string) (lat, lon, alt float64, unix int64, err error) {
	f0, r, ok0 := strings.Cut(rest, ",")
	f1, r, ok1 := strings.Cut(r, ",")
	f2, f3, ok2 := strings.Cut(r, ",")
	if !ok0 || !ok1 || !ok2 || strings.Contains(f3, ",") {
		return 0, 0, 0, 0, fmt.Errorf("trace: record has %d value fields, want 4: %q", strings.Count(rest, ",")+1, rec)
	}
	if lat, err = strconv.ParseFloat(f0, 64); err != nil {
		return 0, 0, 0, 0, fmt.Errorf("trace: bad latitude in record %q: %v", rec, err)
	}
	if lon, err = strconv.ParseFloat(f1, 64); err != nil {
		return 0, 0, 0, 0, fmt.Errorf("trace: bad longitude in record %q: %v", rec, err)
	}
	if alt, err = strconv.ParseFloat(f2, 64); err != nil {
		return 0, 0, 0, 0, fmt.Errorf("trace: bad altitude in record %q: %v", rec, err)
	}
	if unix, err = strconv.ParseInt(f3, 10, 64); err != nil {
		return 0, 0, 0, 0, fmt.Errorf("trace: bad unix time in record %q: %v", rec, err)
	}
	return lat, lon, alt, unix, nil
}

var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// decimalField parses the field s starts with when it is a plain
// decimal -?digits[.digits] of at most 15 digits, ended by a comma;
// rest is what follows the comma. Its value is strconv.ParseFloat's,
// bit for bit: this is Clinger's fast path, the one strconv takes
// itself. The mantissa (< 2^53) and the power of ten are exact
// float64s, so their quotient is rounded once, correctly.
func decimalField(s string) (v float64, rest string, ok bool) {
	i := 0
	if len(s) > 0 && s[0] == '-' {
		i = 1
	}
	var mant uint64
	digits, point := 0, -1 // point: the digits before the '.', once one is seen
	for ; i < len(s); i++ {
		if c := s[i]; c-'0' <= 9 {
			mant = mant*10 + uint64(c-'0')
			digits++
		} else if c == '.' && point < 0 && digits > 0 {
			point = digits
		} else {
			break
		}
	}
	frac := 0
	if point >= 0 {
		frac = digits - point
	}
	if digits == 0 || digits > 15 || point == digits || i == len(s) || s[i] != ',' {
		return 0, "", false
	}
	if v = float64(mant) / pow10[frac]; s[0] == '-' {
		v = -v
	}
	return v, s[i+1:], true
}

// intField parses s when it is -?digits of at most 18 digits, which
// cannot overflow an int64.
func intField(s string) (int64, bool) {
	d := strings.TrimPrefix(s, "-")
	if len(d) == 0 || len(d) > 18 {
		return 0, false
	}
	var n int64
	for i := 0; i < len(d); i++ {
		if c := d[i]; c-'0' <= 9 {
			n = n*10 + int64(c-'0')
		} else {
			return 0, false
		}
	}
	if len(d) < len(s) {
		n = -n
	}
	return n, true
}

// Trail is the time-ordered sequence of mobility traces of a single
// individual (paper §II: "a trail of traces is a collection of mobility
// traces recording the movements of an individual over some period of
// time").
type Trail struct {
	User   string
	Traces []Trace
}

// Sort orders the trail's traces chronologically (stable, so equal
// timestamps keep their original relative order).
func (tr *Trail) Sort() {
	sort.SliceStable(tr.Traces, func(i, j int) bool {
		return tr.Traces[i].Time.Before(tr.Traces[j].Time)
	})
}

// Span returns the first and last timestamps of the trail. It returns
// zero times for an empty trail. The trail must be sorted.
func (tr *Trail) Span() (first, last time.Time) {
	if len(tr.Traces) == 0 {
		return time.Time{}, time.Time{}
	}
	return tr.Traces[0].Time, tr.Traces[len(tr.Traces)-1].Time
}

// Dataset is a geolocated dataset: a set of trails from different
// individuals.
type Dataset struct {
	Trails []Trail
}

// NumTraces returns the total number of traces across all trails.
func (d *Dataset) NumTraces() int {
	n := 0
	for i := range d.Trails {
		n += len(d.Trails[i].Traces)
	}
	return n
}

// Users returns the sorted list of user identifiers in the dataset.
func (d *Dataset) Users() []string {
	users := make([]string, 0, len(d.Trails))
	for i := range d.Trails {
		users = append(users, d.Trails[i].User)
	}
	sort.Strings(users)
	return users
}

// Trail returns the trail for the given user, or nil if absent.
func (d *Dataset) Trail(user string) *Trail {
	for i := range d.Trails {
		if d.Trails[i].User == user {
			return &d.Trails[i]
		}
	}
	return nil
}

// AllTraces returns every trace in the dataset, grouped by trail in
// trail order. The returned slice is freshly allocated.
func (d *Dataset) AllTraces() []Trace {
	out := make([]Trace, 0, d.NumTraces())
	for i := range d.Trails {
		out = append(out, d.Trails[i].Traces...)
	}
	return out
}

// FromTraces groups a flat list of traces into a Dataset with one trail
// per user, each sorted chronologically. Users appear in sorted order.
func FromTraces(traces []Trace) *Dataset {
	byUser := make(map[string][]Trace)
	for _, t := range traces {
		byUser[t.User] = append(byUser[t.User], t)
	}
	users := make([]string, 0, len(byUser))
	for u := range byUser {
		users = append(users, u)
	}
	sort.Strings(users)
	d := &Dataset{Trails: make([]Trail, 0, len(users))}
	for _, u := range users {
		tr := Trail{User: u, Traces: byUser[u]}
		tr.Sort()
		d.Trails = append(d.Trails, tr)
	}
	return d
}

// MarshalPLT renders a trail as the body of a GeoLife .plt file,
// including the six-line header the real dataset carries.
func MarshalPLT(tr *Trail) string {
	var b strings.Builder
	b.WriteString("Geolife trajectory\nWGS 84\nAltitude is in Feet\nReserved 3\n")
	b.WriteString("0,2,255,My Track,0,0,2,8421376\n0\n")
	for _, t := range tr.Traces {
		b.WriteString(t.PLTLine())
		b.WriteByte('\n')
	}
	return b.String()
}

// UnmarshalPLT parses a GeoLife .plt file body (with or without the
// six-line header) into a trail for the given user.
func UnmarshalPLT(user, body string) (*Trail, error) {
	tr := &Trail{User: user}
	lines := strings.Split(body, "\n")
	for i, line := range lines {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Skip header lines: they are the first six lines and never
		// contain exactly 7 comma-separated fields starting with a
		// parseable latitude.
		if i < 6 && !looksLikeRecord(line) {
			continue
		}
		t, err := ParsePLTLine(user, line)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %v", i+1, err)
		}
		tr.Traces = append(tr.Traces, t)
	}
	return tr, nil
}

func looksLikeRecord(line string) bool {
	fields := strings.Split(line, ",")
	if len(fields) != 7 {
		return false
	}
	_, err := strconv.ParseFloat(fields[0], 64)
	return err == nil
}

// FilterUsers returns a new dataset holding only the given users'
// trails (missing users are ignored).
func (d *Dataset) FilterUsers(users ...string) *Dataset {
	want := make(map[string]bool, len(users))
	for _, u := range users {
		want[u] = true
	}
	out := &Dataset{}
	for _, tr := range d.Trails {
		if want[tr.User] {
			out.Trails = append(out.Trails, tr)
		}
	}
	return out
}
