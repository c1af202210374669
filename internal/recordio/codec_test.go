package recordio

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/geo"
	"repro/internal/trace"
)

func TestInt64RoundTrip(t *testing.T) {
	c := Int64{}
	for _, v := range []int64{math.MinInt64, -1 << 40, -7, -1, 0, 1, 42, 1 << 40, math.MaxInt64} {
		got, err := c.Decode(string(c.Append(nil, v)))
		if err != nil {
			t.Fatalf("Decode(%d): %v", v, err)
		}
		if got != v {
			t.Fatalf("round trip %d -> %d", v, got)
		}
	}
	if _, err := c.Decode("short"); err == nil {
		t.Fatal("want error for wrong-length encoding")
	}
}

func TestUint64RoundTrip(t *testing.T) {
	c := Uint64{}
	for _, v := range []uint64{0, 1, 1 << 63, math.MaxUint64} {
		got, err := c.Decode(string(c.Append(nil, v)))
		if err != nil {
			t.Fatalf("Decode(%d): %v", v, err)
		}
		if got != v {
			t.Fatalf("round trip %d -> %d", v, got)
		}
	}
}

func TestFloat64RoundTrip(t *testing.T) {
	c := Float64{}
	values := []float64{
		math.Inf(-1), -math.MaxFloat64, -1.5, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 1.5,
		math.MaxFloat64, math.Inf(1),
	}
	for _, v := range values {
		got, err := c.Decode(string(c.Append(nil, v)))
		if err != nil {
			t.Fatalf("Decode(%v): %v", v, err)
		}
		if math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("round trip %v -> %v (bit-exact wanted)", v, got)
		}
	}
}

func TestFloat64RejectsNaN(t *testing.T) {
	c := Float64{}
	defer func() {
		if recover() == nil {
			t.Fatal("Append(NaN) did not panic")
		}
	}()
	c.Append(nil, math.NaN())
}

func TestFloat64DecodeRejectsNaNPattern(t *testing.T) {
	// An encoding that decodes to a NaN bit pattern must be refused.
	enc := beAppendUint64(nil, math.Float64bits(math.NaN())|1<<63)
	if _, err := (Float64{}).Decode(string(enc)); err == nil {
		t.Fatal("want error decoding NaN bit pattern")
	}
}

// cmpSign normalises a comparison result to -1/0/1.
func cmpSign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	}
	return 0
}

// TestPropertyInt64RawCompareAgrees is the satellite ordering
// property: RawCompare on encoded int64 keys must agree with the
// comparison of the decoded values, negatives included.
func TestPropertyInt64RawCompareAgrees(t *testing.T) {
	c := Int64{}
	edge := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	f := func(a, b int64) bool {
		ea, eb := string(c.Append(nil, a)), string(c.Append(nil, b))
		want := 0
		if a < b {
			want = -1
		} else if a > b {
			want = 1
		}
		return cmpSign(c.RawCompare(ea, eb)) == want
	}
	for _, a := range edge {
		for _, b := range edge {
			if !f(a, b) {
				t.Fatalf("edge pair (%d, %d) misordered", a, b)
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyFloat64RawCompareAgrees covers the float ordering
// policy: -Inf < every finite value < +Inf, with -0 ordered before +0
// and NaN excluded by construction.
func TestPropertyFloat64RawCompareAgrees(t *testing.T) {
	c := Float64{}
	edge := []float64{
		math.Inf(-1), -math.MaxFloat64, -1, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 1,
		math.MaxFloat64, math.Inf(1),
	}
	// want orders by the encoding's total order: bit-distinct -0 < +0,
	// otherwise the usual < on floats.
	want := func(a, b float64) int {
		if a < b {
			return -1
		}
		if a > b {
			return 1
		}
		sa, sb := math.Signbit(a), math.Signbit(b)
		if sa == sb {
			return 0
		}
		if sa {
			return -1
		}
		return 1
	}
	check := func(a, b float64) bool {
		ea, eb := string(c.Append(nil, a)), string(c.Append(nil, b))
		return cmpSign(c.RawCompare(ea, eb)) == want(a, b)
	}
	for i, a := range edge {
		for j, b := range edge {
			if !check(a, b) {
				t.Fatalf("edge pair %d,%d (%v, %v) misordered", i, j, a, b)
			}
		}
		// Edge values in the encoded order must be strictly increasing.
		if i > 0 {
			ea := string(c.Append(nil, edge[i-1]))
			eb := string(c.Append(nil, a))
			if !(ea < eb) {
				t.Fatalf("encoded %v !< encoded %v", edge[i-1], a)
			}
		}
	}
	f := func(ab, bb uint64) bool {
		a, b := math.Float64frombits(ab), math.Float64frombits(bb)
		if math.IsNaN(a) || math.IsNaN(b) {
			return true // NaN is rejected, not ordered
		}
		return check(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestStringCodecRoundTripAndOrder(t *testing.T) {
	c := String{}
	values := []string{"", "\x00", "\x00\x00", "a", "a\x00", "a\x00b", "a\x01", "ab", "b", "\xff", "héllo"}
	for _, v := range values {
		got, err := c.Decode(string(c.Append(nil, v)))
		if err != nil {
			t.Fatalf("Decode(%q): %v", v, err)
		}
		if got != v {
			t.Fatalf("round trip %q -> %q", v, got)
		}
	}
	for _, a := range values {
		for _, b := range values {
			ea, eb := string(c.Append(nil, a)), string(c.Append(nil, b))
			if cmpSign(strings.Compare(ea, eb)) != cmpSign(strings.Compare(a, b)) {
				t.Fatalf("encoded order of (%q, %q) disagrees with string order", a, b)
			}
		}
	}
	if _, err := c.Decode("unterminated"); err == nil {
		t.Fatal("want error for unterminated encoding")
	}
	if _, err := c.Decode("a\x00\x00extra"); err == nil {
		t.Fatal("want error for trailing bytes")
	}
}

func TestUserTimeRoundTripAndOrder(t *testing.T) {
	c := UserTime{}
	keys := []UserTimeKey{
		{"", -5}, {"", 0}, {"a", math.MinInt64}, {"a", -1}, {"a", 0}, {"a", 7},
		{"a\x00", 0}, {"ab", math.MinInt64}, {"b", 3},
	}
	for _, k := range keys {
		got, err := c.Decode(string(c.Append(nil, k)))
		if err != nil {
			t.Fatalf("Decode(%v): %v", k, err)
		}
		if got != k {
			t.Fatalf("round trip %v -> %v", k, got)
		}
	}
	less := func(a, b UserTimeKey) bool {
		if a.User != b.User {
			return a.User < b.User
		}
		return a.Unix < b.Unix
	}
	for i, a := range keys {
		for j, b := range keys {
			ea, eb := string(c.Append(nil, a)), string(c.Append(nil, b))
			if (c.RawCompare(ea, eb) < 0) != less(a, b) {
				t.Fatalf("keys %d,%d (%v, %v): encoded order disagrees", i, j, a, b)
			}
		}
	}
}

func someTrace() trace.Trace {
	return trace.Trace{
		User:         "user-042",
		Point:        geo.Point{Lat: 39.984702, Lon: 116.318417},
		AltitudeFeet: 492,
		Time:         time.Unix(1224730100, 0).UTC(),
	}
}

func TestTraceValueRoundTrip(t *testing.T) {
	c := TraceValue{}
	tr := someTrace()
	got, err := c.Decode(string(c.Append(nil, tr)))
	if err != nil {
		t.Fatal(err)
	}
	if got != tr {
		t.Fatalf("round trip %+v -> %+v", tr, got)
	}
	// Full float64 precision must survive, beyond the text form's %.6f.
	tr.Point.Lat = 39.98470212345678
	got, err = c.Decode(string(c.Append(nil, tr)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Point.Lat != tr.Point.Lat {
		t.Fatalf("lat %v -> %v, precision lost", tr.Point.Lat, got.Point.Lat)
	}
}

func TestDecodeTraceValueTextForms(t *testing.T) {
	tr := someTrace()
	rec := tr.Record()
	got, err := DecodeTraceValue(rec)
	if err != nil {
		t.Fatalf("DecodeTraceValue(%q): %v", rec, err)
	}
	if got != tr {
		t.Fatalf("%q -> %+v, want %+v", rec, got, tr)
	}
	// A line with a leading key column is not a record: no part file
	// is text.
	if _, err := DecodeTraceValue(tr.User + "\t" + rec); err == nil {
		t.Fatal("want error for a text record with a key column")
	}
	if _, err := DecodeTraceValue("no tabs here"); err == nil {
		t.Fatal("want error for tabless text")
	}
	if _, err := DecodeTraceValue("\x01trunc"); err == nil {
		t.Fatal("want error for truncated binary record")
	}
}

func TestPointRoundTrip(t *testing.T) {
	c := Point{}
	p := geo.Point{Lat: -33.8688197, Lon: 151.2092955}
	got, err := c.Decode(string(c.Append(nil, p)))
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Fatalf("round trip %v -> %v", p, got)
	}
	if _, err := c.Decode("123"); err == nil {
		t.Fatal("want error for wrong length")
	}
}

func TestPointSumRoundTrip(t *testing.T) {
	c := PointSumCodec{}
	var ps PointSum
	ps.Add(geo.Point{Lat: 1.000000125, Lon: -2.25})
	ps.Add(geo.Point{Lat: 3.5, Lon: 4.125})
	other := PointSum{LatSum: 10, LonSum: -20, N: 3}
	ps.Merge(other)
	got, err := c.Decode(string(c.Append(nil, ps)))
	if err != nil {
		t.Fatal(err)
	}
	if got != ps {
		t.Fatalf("round trip %+v -> %+v", ps, got)
	}
}

func TestTimedPointRoundTrip(t *testing.T) {
	c := TimedPointCodec{}
	v := TimedPoint{Unix: -12345, P: geo.Point{Lat: 48.8584, Lon: 2.2945}}
	got, err := c.Decode(string(c.Append(nil, v)))
	if err != nil {
		t.Fatal(err)
	}
	if got != v {
		t.Fatalf("round trip %+v -> %+v", v, got)
	}
}

func TestUint64ListRoundTrip(t *testing.T) {
	c := Uint64List{}
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 3, 100} {
		v := make([]uint64, n)
		for i := range v {
			v[i] = rng.Uint64()
		}
		got, err := c.Decode(string(c.Append(nil, v)))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(v) {
			t.Fatalf("len %d -> %d", len(v), len(got))
		}
		for i := range v {
			if got[i] != v[i] {
				t.Fatalf("element %d: %d -> %d", i, v[i], got[i])
			}
		}
	}
	if _, err := c.Decode("\x02\x00"); err == nil {
		t.Fatal("want error for truncated list")
	}
}

func TestAscendingListRoundTrip(t *testing.T) {
	c32, c64 := AscendingList[uint32]{}, AscendingList[uint64]{}
	for _, v := range [][]uint32{{}, {0}, {7}, {0, 1, 2}, {3, 200, 201, 70000, math.MaxUint32}} {
		enc := c32.Append(nil, v)
		got, err := c32.Decode(string(enc))
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(v) {
			t.Fatalf("round trip %v -> %v", v, got)
		}
	}
	v := []uint64{0, 1, math.MaxUint32 + 1, math.MaxUint64 - 1, math.MaxUint64}
	got, err := c64.Decode(string(c64.Append(nil, v)))
	if err != nil || fmt.Sprint(got) != fmt.Sprint(v) {
		t.Fatalf("round trip %v -> %v, %v", v, got, err)
	}
	// Neighbors cost a byte each.
	if enc := c32.Append(nil, []uint32{1000, 1001, 1002, 1005}); len(enc) != 1+2+3 {
		t.Fatalf("encoding of close ordinals is %d bytes, want 6", len(enc))
	}
}

func TestAscendingListRejectsHostileBytes(t *testing.T) {
	c32, c64 := AscendingList[uint32]{}, AscendingList[uint64]{}
	valid := string(c32.Append(nil, []uint32{5, 300, 301}))
	for _, tc := range []struct{ name, enc string }{
		{"empty", ""},
		{"truncated count", "\x80"},
		{"truncated element", valid[:len(valid)-1]},
		{"truncated multi-byte delta", "\x02\x05\xa7"},
		{"count past the bytes", "\x05\x01\x01"},
		{"overlong varint", "\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x7f"},
		{"non-minimal count", "\x81\x00\x05"},
		{"non-minimal element", "\x01\x85\x00"},
		{"zero delta", "\x02\x05\x00"},
		{"value past uint32", "\x01\x80\x80\x80\x80\x10"},
		{"sum past uint32", "\x02\xff\xff\xff\xff\x0f\x01"},
		{"trailing bytes", valid + "\x01"},
	} {
		if got, err := c32.Decode(tc.enc); err == nil {
			t.Errorf("%s: Decode(%q) = %v, want an error", tc.name, tc.enc, got)
		}
	}
	max64 := string(c64.Append(nil, []uint64{math.MaxUint64}))
	if got, err := c64.Decode("\x02" + max64[1:] + "\x01"); err == nil {
		t.Errorf("sum past uint64: Decode = %v, want an error", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Append of a repeated element did not panic")
		}
	}()
	c32.Append(nil, []uint32{4, 4})
}

func TestStringListRoundTrip(t *testing.T) {
	c := StringList{}
	for _, v := range [][]string{{}, {""}, {"a"}, {"", "ab", "", "ccc"}} {
		got, err := c.Decode(string(c.Append(nil, v)))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(v) {
			t.Fatalf("len %d -> %d", len(v), len(got))
		}
		for i := range v {
			if got[i] != v[i] {
				t.Fatalf("element %d: %q -> %q", i, v[i], got[i])
			}
		}
	}
	if _, err := c.Decode("\x05abc"); err == nil {
		t.Fatal("want error for short list")
	}
	if _, err := (StringList{}).Decode("\x01\x01aXX"); err == nil {
		t.Fatal("want error for trailing bytes")
	}
}

func TestIDPointRoundTrip(t *testing.T) {
	c := IDPointCodec{}
	for _, v := range []IDPoint{
		{ID: "", P: geo.Point{}},
		{ID: "u1:100", P: geo.Point{Lat: 39.9042, Lon: 116.4074}},
		{ID: "user-with-long-id:9999999999", P: geo.Point{Lat: -89.5, Lon: -179.5}},
	} {
		got, err := c.Decode(string(c.Append(nil, v)))
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Fatalf("round-trip %+v -> %+v", v, got)
		}
	}
	if _, err := c.Decode(""); err == nil {
		t.Fatal("want error for empty encoding")
	}
	enc := string(c.Append(nil, IDPoint{ID: "a:1", P: geo.Point{Lat: 1, Lon: 2}}))
	if _, err := c.Decode(enc[:len(enc)-1]); err == nil {
		t.Fatal("want error for truncated encoding")
	}
	if _, err := c.Decode(enc + "X"); err == nil {
		t.Fatal("want error for trailing bytes")
	}
}
