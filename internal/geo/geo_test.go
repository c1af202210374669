package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHaversineKnownDistances(t *testing.T) {
	tests := []struct {
		name   string
		a, b   Point
		wantM  float64
		within float64 // relative tolerance
	}{
		{
			name:   "Paris-London",
			a:      Point{48.8566, 2.3522},
			b:      Point{51.5074, -0.1278},
			wantM:  343_500,
			within: 0.01,
		},
		{
			name:   "Beijing 1km east",
			a:      Point{39.9042, 116.4074},
			b:      Destination(Point{39.9042, 116.4074}, 90, 1000),
			wantM:  1000,
			within: 0.001,
		},
		{
			name:   "same point",
			a:      Point{39.9, 116.4},
			b:      Point{39.9, 116.4},
			wantM:  0,
			within: 0,
		},
		{
			name:   "antipodal-ish equator quarter",
			a:      Point{0, 0},
			b:      Point{0, 90},
			wantM:  math.Pi / 2 * EarthRadiusMeters,
			within: 0.001,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Haversine(tt.a, tt.b)
			if tt.wantM == 0 {
				if got != 0 {
					t.Fatalf("Haversine = %v, want 0", got)
				}
				return
			}
			if rel := math.Abs(got-tt.wantM) / tt.wantM; rel > tt.within {
				t.Fatalf("Haversine = %v, want %v (±%v rel)", got, tt.wantM, tt.within)
			}
		})
	}
}

func TestHaversineSymmetry(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Point{clamp(lat1, -90, 90), clamp(lon1, -180, 180)}
		b := Point{clamp(lat2, -90, 90), clamp(lon2, -180, 180)}
		d1, d2 := Haversine(a, b), Haversine(b, a)
		return math.Abs(d1-d2) <= 1e-6*(1+d1)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestHaversineTriangleInequality(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(x1, y1, x2, y2, x3, y3 float64) bool {
		a := Point{clamp(x1, -89, 89), clamp(y1, -179, 179)}
		b := Point{clamp(x2, -89, 89), clamp(y2, -179, 179)}
		c := Point{clamp(x3, -89, 89), clamp(y3, -179, 179)}
		return Haversine(a, c) <= Haversine(a, b)+Haversine(b, c)+1e-6
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSquaredEuclideanOrderPreserving(t *testing.T) {
	// The paper uses squared Euclidean specifically because it preserves
	// the order relationship between points. Verify against Euclidean.
	cfg := &quick.Config{MaxCount: 300}
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a := Point{clamp(ax, -90, 90), clamp(ay, -180, 180)}
		b := Point{clamp(bx, -90, 90), clamp(by, -180, 180)}
		c := Point{clamp(cx, -90, 90), clamp(cy, -180, 180)}
		sq := SquaredEuclidean(a, b) < SquaredEuclidean(a, c)
		eu := MetricEuclidean.Distance(a, b) < MetricEuclidean.Distance(a, c)
		return sq == eu
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDestinationRoundTrip(t *testing.T) {
	origin := Point{39.9, 116.4}
	for _, d := range []float64{5, 500, 50_000} {
		for brg := 0.0; brg < 360; brg += 30 {
			p := Destination(origin, brg, d)
			got := Haversine(origin, p)
			if math.Abs(got-d) > 0.001*d+1e-6 {
				t.Fatalf("Destination(%v, %v): distance %v, want %v", brg, d, got, d)
			}
		}
	}
}

func TestSpeedKmh(t *testing.T) {
	a := Point{39.9, 116.4}
	b := Destination(a, 90, 1000) // 1 km
	if got := SpeedKmh(a, b, 3600); math.Abs(got-1.0) > 0.01 {
		t.Fatalf("1km in 1h: got %v km/h, want ~1", got)
	}
	if got := SpeedKmh(a, b, 60); math.Abs(got-60.0) > 0.5 {
		t.Fatalf("1km in 1min: got %v km/h, want ~60", got)
	}
	if got := SpeedKmh(a, a, 0); got != 0 {
		t.Fatalf("zero distance zero time: got %v, want 0", got)
	}
	if got := SpeedKmh(a, b, 0); !math.IsInf(got, 1) {
		t.Fatalf("nonzero distance zero time: got %v, want +Inf", got)
	}
}

func TestParseMetric(t *testing.T) {
	for name, want := range map[string]Metric{
		"haversine":         MetricHaversine,
		"euclidean":         MetricEuclidean,
		"squaredeuclidean":  MetricSquaredEuclidean,
		"squared-euclidean": MetricSquaredEuclidean,
		"sqeuclidean":       MetricSquaredEuclidean,
		"manhattan":         MetricManhattan,
		"l1":                MetricManhattan,
	} {
		got, err := ParseMetric(name)
		if err != nil || got != want {
			t.Fatalf("ParseMetric(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseMetric("manhattan-ish"); err == nil {
		t.Fatal("ParseMetric of unknown name: want error")
	}
}

func TestMetricString(t *testing.T) {
	for _, m := range []Metric{MetricSquaredEuclidean, MetricEuclidean, MetricHaversine, MetricManhattan} {
		back, err := ParseMetric(m.String())
		if err != nil || back != m {
			t.Fatalf("round-trip %v: got %v, %v", m, back, err)
		}
	}
}

func TestPointValid(t *testing.T) {
	valid := []Point{{0, 0}, {-90, -180}, {90, 180}, {39.9, 116.4}}
	for _, p := range valid {
		if !p.Valid() {
			t.Errorf("%v should be valid", p)
		}
	}
	invalid := []Point{{91, 0}, {-91, 0}, {0, 181}, {0, -181}, {math.NaN(), 0}, {0, math.NaN()}}
	for _, p := range invalid {
		if p.Valid() {
			t.Errorf("%v should be invalid", p)
		}
	}
}

func TestRectContainsIntersects(t *testing.T) {
	r := Rect{Min: Point{0, 0}, Max: Point{10, 10}}
	if !r.Contains(Point{5, 5}) || !r.Contains(Point{0, 0}) || !r.Contains(Point{10, 10}) {
		t.Fatal("Contains should include interior and edges")
	}
	if r.Contains(Point{10.001, 5}) || r.Contains(Point{5, -0.001}) {
		t.Fatal("Contains should exclude exterior")
	}
	cases := []struct {
		o    Rect
		want bool
	}{
		{Rect{Point{5, 5}, Point{15, 15}}, true},   // overlap
		{Rect{Point{10, 10}, Point{20, 20}}, true}, // corner touch
		{Rect{Point{11, 11}, Point{20, 20}}, false},
		{Rect{Point{2, 2}, Point{3, 3}}, true}, // contained
	}
	for i, c := range cases {
		if got := r.Intersects(c.o); got != c.want {
			t.Errorf("case %d: Intersects = %v, want %v", i, got, c.want)
		}
		if got := c.o.Intersects(r); got != c.want {
			t.Errorf("case %d: Intersects not symmetric", i)
		}
	}
}

func TestRectUnionArea(t *testing.T) {
	a := Rect{Point{0, 0}, Point{1, 1}}
	b := Rect{Point{2, 2}, Point{3, 4}}
	u := a.Union(b)
	if u.Min != (Point{0, 0}) || u.Max != (Point{3, 4}) {
		t.Fatalf("Union = %+v", u)
	}
	if !u.Contains(a.Min) || !u.Contains(a.Max) || !u.Contains(b.Min) || !u.Contains(b.Max) {
		t.Fatalf("Union %+v does not contain both rects", u)
	}
	if u.Contains(Point{3.5, 2}) || u.Contains(Point{-0.5, 1}) {
		t.Fatalf("Union %+v reaches past both rects", u)
	}
}

func TestRectUnionProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(x1, y1, x2, y2, x3, y3, x4, y4 float64) bool {
		a := mkRect(x1, y1, x2, y2)
		b := mkRect(x3, y3, x4, y4)
		u := a.Union(b)
		// Union contains both corners of both rects, and each of its
		// four edges is an edge of a or b, so it is the smallest such
		// rectangle.
		return u.Contains(a.Min) && u.Contains(a.Max) &&
			u.Contains(b.Min) && u.Contains(b.Max) &&
			(u.Min.Lat == a.Min.Lat || u.Min.Lat == b.Min.Lat) &&
			(u.Min.Lon == a.Min.Lon || u.Min.Lon == b.Min.Lon) &&
			(u.Max.Lat == a.Max.Lat || u.Max.Lat == b.Max.Lat) &&
			(u.Max.Lon == a.Max.Lon || u.Max.Lon == b.Max.Lon)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func clamp(v, lo, hi float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	// Fold arbitrary float into [lo, hi] deterministically.
	span := hi - lo
	v = math.Mod(v-lo, span)
	if v < 0 {
		v += span
	}
	return lo + v
}

func mkRect(x1, y1, x2, y2 float64) Rect {
	a := Point{clamp(x1, -90, 90), clamp(y1, -180, 180)}
	b := Point{clamp(x2, -90, 90), clamp(y2, -180, 180)}
	return Rect{
		Min: Point{math.Min(a.Lat, b.Lat), math.Min(a.Lon, b.Lon)},
		Max: Point{math.Max(a.Lat, b.Lat), math.Max(a.Lon, b.Lon)},
	}
}

func TestManhattanProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	// Symmetry, identity, triangle inequality: L1 is a true metric.
	f := func(x1, y1, x2, y2, x3, y3 float64) bool {
		a := Point{clamp(x1, -90, 90), clamp(y1, -180, 180)}
		b := Point{clamp(x2, -90, 90), clamp(y2, -180, 180)}
		c := Point{clamp(x3, -90, 90), clamp(y3, -180, 180)}
		if Manhattan(a, b) != Manhattan(b, a) {
			return false
		}
		if Manhattan(a, a) != 0 {
			return false
		}
		return Manhattan(a, c) <= Manhattan(a, b)+Manhattan(b, c)+1e-9
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
	// L1 >= L2 always.
	if Manhattan(Point{0, 0}, Point{3, 4}) != 7 {
		t.Fatal("Manhattan(0,0 -> 3,4) != 7")
	}
}

func TestPointString(t *testing.T) {
	p := Point{Lat: 39.9042, Lon: 116.4074}
	if got := p.String(); got != "39.904200,116.407400" {
		t.Fatalf("String = %q", got)
	}
}

func TestMetricDistanceDispatch(t *testing.T) {
	a := Point{Lat: 39.9, Lon: 116.4}
	b := Point{Lat: 39.91, Lon: 116.42}
	if MetricSquaredEuclidean.Distance(a, b) != SquaredEuclidean(a, b) {
		t.Fatal("squared euclidean dispatch")
	}
	if MetricEuclidean.Distance(a, b) != math.Sqrt(SquaredEuclidean(a, b)) {
		t.Fatal("euclidean dispatch")
	}
	if MetricHaversine.Distance(a, b) != Haversine(a, b) {
		t.Fatal("haversine dispatch")
	}
	if MetricManhattan.Distance(a, b) != Manhattan(a, b) {
		t.Fatal("manhattan dispatch")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric should panic")
		}
	}()
	Metric(99).Distance(a, b)
}
