package trace

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/geo"
)

func mustTime(t *testing.T, s string) time.Time {
	t.Helper()
	ts, err := time.Parse("2006-01-02 15:04:05", s)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestParsePLTLineExample(t *testing.T) {
	// Structure from Fig. 1 of the paper (GeoLife record).
	line := "39.906631,116.385564,0,492,39745.090266,2008-10-24,02:09:59"
	tr, err := ParsePLTLine("000", line)
	if err != nil {
		t.Fatal(err)
	}
	if tr.User != "000" {
		t.Errorf("User = %q", tr.User)
	}
	if tr.Point.Lat != 39.906631 || tr.Point.Lon != 116.385564 {
		t.Errorf("Point = %v", tr.Point)
	}
	if tr.AltitudeFeet != 492 {
		t.Errorf("AltitudeFeet = %v", tr.AltitudeFeet)
	}
	want := mustTime(t, "2008-10-24 02:09:59")
	if !tr.Time.Equal(want) {
		t.Errorf("Time = %v, want %v", tr.Time, want)
	}
}

func TestDaysSinceEpochMatchesGeoLifeField(t *testing.T) {
	// 2008-10-24 02:09:59 UTC is 39745.090266 days after 1899-12-30.
	tr := Trace{Time: mustTime(t, "2008-10-24 02:09:59")}
	if got := tr.DaysSinceEpoch(); math.Abs(got-39745.090266) > 1e-5 {
		t.Fatalf("DaysSinceEpoch = %v, want 39745.090266", got)
	}
}

func TestPLTLineRoundTrip(t *testing.T) {
	orig := Trace{
		User:         "017",
		Point:        geo.Point{Lat: 39.906631, Lon: 116.385564},
		AltitudeFeet: 492,
		Time:         mustTime(t, "2008-10-24 02:09:59"),
	}
	line := orig.PLTLine()
	back, err := ParsePLTLine("017", line)
	if err != nil {
		t.Fatalf("%v (line %q)", err, line)
	}
	if back != orig {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", back, orig)
	}
}

func TestPLTLineRoundTripProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	f := func(latRaw, lonRaw float64, altRaw int16, unixRaw int32) bool {
		tr := Trace{
			User:         "042",
			Point:        geo.Point{Lat: fold(latRaw, -90, 90), Lon: fold(lonRaw, -180, 180)},
			AltitudeFeet: float64(altRaw),
			Time:         time.Unix(int64(unixRaw)+1_000_000_000, 0).UTC(),
		}
		// PLT has 6-decimal precision; quantize expectations.
		back, err := ParsePLTLine("042", tr.PLTLine())
		if err != nil {
			return false
		}
		return math.Abs(back.Point.Lat-tr.Point.Lat) < 1e-6 &&
			math.Abs(back.Point.Lon-tr.Point.Lon) < 1e-6 &&
			back.AltitudeFeet == tr.AltitudeFeet &&
			back.Time.Equal(tr.Time)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestParsePLTLineErrors(t *testing.T) {
	bad := []string{
		"",
		"39.9,116.4,0,492,39745.09,2008-10-24", // 6 fields
		"abc,116.4,0,492,39745.09,2008-10-24,02:09:59",
		"39.9,xyz,0,492,39745.09,2008-10-24,02:09:59",
		"39.9,116.4,0,bad,39745.09,2008-10-24,02:09:59",
		"39.9,116.4,0,492,39745.09,2008-13-45,02:09:59", // bad date
		"91.0,116.4,0,492,39745.09,2008-10-24,02:09:59", // lat out of range
	}
	for _, line := range bad {
		if _, err := ParsePLTLine("u", line); err == nil {
			t.Errorf("ParsePLTLine(%q): want error", line)
		}
	}
}

func TestRecordRoundTrip(t *testing.T) {
	orig := Trace{
		User:         "153",
		Point:        geo.Point{Lat: 39.984702, Lon: 116.318417},
		AltitudeFeet: 492,
		Time:         time.Unix(1224813000, 0).UTC(),
	}
	back, err := ParseRecord(orig.Record())
	if err != nil {
		t.Fatal(err)
	}
	if back != orig {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", back, orig)
	}
}

func TestParseRecordErrors(t *testing.T) {
	bad := []string{
		"no-tab-here",
		"u\t1,2,3",              // 3 fields
		"u\t1,2,3,4,5",          // 5 fields
		"u\tx,2,3,4",            // bad lat
		"u\t1,y,3,4",            // bad lon
		"u\t1,2,z,4",            // bad alt
		"u\t1,2,3,4.5something", // bad unix
	}
	for _, rec := range bad {
		if _, err := ParseRecord(rec); err == nil {
			t.Errorf("ParseRecord(%q): want error", rec)
		}
	}
}

// TestParseRecordRejectsInvalidValues: a record that parses must be one
// the binary trace codec can carry, so the text form refuses what the
// binary form refuses — a coordinate off the globe or NaN, a NaN
// altitude — rather than letting it into k-means sums.
func TestParseRecordRejectsInvalidValues(t *testing.T) {
	for _, tc := range []struct {
		rec, want string // want: "" to accept, else an error substring
	}{
		{"u\t90,180,-777,0", ""},
		{"u\t-90,-180,+Inf,0", ""},
		{"u\t200,1,0,0", "coordinate out of range"},
		{"u\t1,-180.000001,0,0", "coordinate out of range"},
		{"u\tNaN,1,0,0", "coordinate out of range"},
		{"u\t1,nan,0,0", "coordinate out of range"},
		{"u\t-Inf,1,0,0", "coordinate out of range"},
		{"u\t1,2,NaN,0", "NaN altitude"},
	} {
		_, err := ParseRecord(tc.rec)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("ParseRecord(%q): %v", tc.rec, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("ParseRecord(%q) = %v, want an error containing %q", tc.rec, err, tc.want)
		}
	}
}

// TestAppendRecordMatchesFmt pins AppendRecord to the fmt rendering it
// replaces, on the values where 'f' and 'g' formatting have edges.
func TestAppendRecordMatchesFmt(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, tr := range []Trace{
		{User: "153", Point: geo.Point{Lat: 39.984702, Lon: 116.318417}, AltitudeFeet: 492, Time: time.Unix(1224813000, 0)},
		{User: "u", Point: geo.Point{Lat: -33.8688, Lon: -151.2093}, AltitudeFeet: -777, Time: time.Unix(-86400, 0)},
		{User: "", Point: geo.Point{Lat: negZero, Lon: 0}, AltitudeFeet: negZero},
		{User: "big", Point: geo.Point{Lat: 89.9999995, Lon: -0.0000004}, AltitudeFeet: 1e21, Time: time.Unix(1<<40, 0)},
		{User: "tiny", Point: geo.Point{Lat: 1e-7, Lon: 179.9999999}, AltitudeFeet: 1e-7},
		{User: "g", AltitudeFeet: 123456789.125, Time: time.Unix(math.MaxInt32, 0)},
		{User: "inf", AltitudeFeet: math.Inf(1)},
		{User: "nan", AltitudeFeet: math.NaN()},
	} {
		want := fmt.Sprintf("%s\t%.6f,%.6f,%g,%d", tr.User, tr.Point.Lat, tr.Point.Lon, tr.AltitudeFeet, tr.Time.Unix())
		if got := string(tr.AppendRecord([]byte("prefix"))); got != "prefix"+want {
			t.Errorf("AppendRecord = %q, want %q", got, "prefix"+want)
		}
		if got := tr.Record(); got != want {
			t.Errorf("Record = %q, want %q", got, want)
		}
	}
}

func TestTrailSortAndSpan(t *testing.T) {
	tr := Trail{User: "u", Traces: []Trace{
		{User: "u", Time: time.Unix(300, 0)},
		{User: "u", Time: time.Unix(100, 0)},
		{User: "u", Time: time.Unix(200, 0)},
	}}
	tr.Sort()
	for i := 1; i < len(tr.Traces); i++ {
		if tr.Traces[i].Time.Before(tr.Traces[i-1].Time) {
			t.Fatal("not sorted")
		}
	}
	first, last := tr.Span()
	if first != time.Unix(100, 0) || last != time.Unix(300, 0) {
		t.Fatalf("Span = %v, %v", first, last)
	}

	var empty Trail
	f, l := empty.Span()
	if !f.IsZero() || !l.IsZero() {
		t.Fatal("empty trail should have zero span")
	}
}

func TestFromTraces(t *testing.T) {
	traces := []Trace{
		{User: "b", Time: time.Unix(2, 0)},
		{User: "a", Time: time.Unix(5, 0)},
		{User: "b", Time: time.Unix(1, 0)},
		{User: "a", Time: time.Unix(3, 0)},
	}
	d := FromTraces(traces)
	if got := d.Users(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Users = %v", got)
	}
	if d.NumTraces() != 4 {
		t.Fatalf("NumTraces = %d", d.NumTraces())
	}
	b := d.Trail("b")
	if b == nil || len(b.Traces) != 2 || b.Traces[0].Time != time.Unix(1, 0) {
		t.Fatalf("Trail(b) = %+v", b)
	}
	if d.Trail("zzz") != nil {
		t.Fatal("missing user should return nil")
	}
	if got := len(d.AllTraces()); got != 4 {
		t.Fatalf("AllTraces len = %d", got)
	}
}

func TestMarshalUnmarshalPLT(t *testing.T) {
	tr := &Trail{User: "000", Traces: []Trace{
		{User: "000", Point: geo.Point{Lat: 39.906631, Lon: 116.385564}, AltitudeFeet: 492, Time: mustTime(t, "2008-10-24 02:09:59")},
		{User: "000", Point: geo.Point{Lat: 39.906712, Lon: 116.385601}, AltitudeFeet: 491, Time: mustTime(t, "2008-10-24 02:10:04")},
	}}
	body := MarshalPLT(tr)
	if !strings.HasPrefix(body, "Geolife trajectory\n") {
		t.Fatal("missing GeoLife header")
	}
	back, err := UnmarshalPLT("000", body)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Traces) != 2 {
		t.Fatalf("got %d traces, want 2", len(back.Traces))
	}
	for i := range back.Traces {
		if back.Traces[i] != tr.Traces[i] {
			t.Fatalf("trace %d mismatch: got %+v want %+v", i, back.Traces[i], tr.Traces[i])
		}
	}
}

func TestUnmarshalPLTWithoutHeader(t *testing.T) {
	body := "39.906631,116.385564,0,492,39745.090266,2008-10-24,02:09:59\n"
	tr, err := UnmarshalPLT("u", body)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(tr.Traces))
	}
}

func TestUnmarshalPLTBadBody(t *testing.T) {
	// A malformed record after the header region must error.
	body := MarshalPLT(&Trail{User: "u"}) + "this,is,not,a,valid,record,line\n"
	if _, err := UnmarshalPLT("u", body); err == nil {
		t.Fatal("want error for malformed record")
	}
}

func fold(v, lo, hi float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	span := hi - lo
	v = math.Mod(v-lo, span)
	if v < 0 {
		v += span
	}
	return lo + v
}

func TestDatasetFilters(t *testing.T) {
	mk := func(user string, lat float64, unix int64) Trace {
		return Trace{User: user, Point: geo.Point{Lat: lat, Lon: 116.4}, Time: time.Unix(unix, 0)}
	}
	d := FromTraces([]Trace{
		mk("a", 39.5, 100), mk("a", 39.9, 200), mk("a", 40.2, 300),
		mk("b", 39.8, 150), mk("b", 39.9, 250),
	})

	byUser := d.FilterUsers("b", "zzz")
	if len(byUser.Trails) != 1 || byUser.Trails[0].User != "b" {
		t.Fatalf("FilterUsers = %+v", byUser.Trails)
	}

}
