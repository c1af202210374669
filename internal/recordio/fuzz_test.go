package recordio

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/trace"
)

// FuzzTraceRoundTrip checks that every encodable trace survives the
// binary codec bit-for-bit.
func FuzzTraceRoundTrip(f *testing.F) {
	f.Add("user-000", 39.984702, 116.318417, 492.0, int64(1224730100))
	f.Add("", 0.0, 0.0, 0.0, int64(0))
	f.Add("u\tv", -90.0, 180.0, -1.5, int64(-1))
	f.Add("\x01tagged", 89.999999, -179.999999, math.MaxFloat64, int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, user string, lat, lon, alt float64, unix int64) {
		p := geo.Point{Lat: lat, Lon: lon}
		if !p.Valid() || math.IsNaN(alt) {
			return // the codec rejects what the domain rejects
		}
		tr := trace.Trace{User: user, Point: p, AltitudeFeet: alt, Time: time.Unix(unix, 0).UTC()}
		enc := string(TraceValue{}.Append(nil, tr))
		got, err := TraceValue{}.Decode(enc)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if got != tr {
			t.Fatalf("round trip %+v -> %+v", tr, got)
		}
	})
}

// FuzzPointRoundTrip checks the 16-byte point codec.
func FuzzPointRoundTrip(f *testing.F) {
	f.Add(39.984702, 116.318417)
	f.Add(0.0, 0.0)
	f.Add(-90.0, -180.0)
	f.Fuzz(func(t *testing.T, lat, lon float64) {
		p := geo.Point{Lat: lat, Lon: lon}
		enc := string(Point{}.Append(nil, p))
		got, err := Point{}.Decode(enc)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if math.Float64bits(got.Lat) != math.Float64bits(lat) ||
			math.Float64bits(got.Lon) != math.Float64bits(lon) {
			t.Fatalf("round trip %v -> %v", p, got)
		}
	})
}

// FuzzKeyCodecs round-trips the scalar and composite key codecs and
// cross-checks RawCompare against the decoded order.
func FuzzKeyCodecs(f *testing.F) {
	f.Add(int64(0), uint64(0), "", int64(0))
	f.Add(int64(-1), math.Float64bits(-1.5), "user", int64(7))
	f.Add(int64(math.MinInt64), math.Float64bits(math.Inf(-1)), "a\x00b", int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, i int64, fbits uint64, s string, unix int64) {
		if got, err := (Int64{}).Decode(string(Int64{}.Append(nil, i))); err != nil || got != i {
			t.Fatalf("int64 round trip %d -> %d, %v", i, got, err)
		}
		if v := math.Float64frombits(fbits); !math.IsNaN(v) {
			got, err := Float64{}.Decode(string(Float64{}.Append(nil, v)))
			if err != nil || math.Float64bits(got) != fbits {
				t.Fatalf("float64 round trip %v -> %v, %v", v, got, err)
			}
		}
		if got, err := (String{}).Decode(string(String{}.Append(nil, s))); err != nil || got != s {
			t.Fatalf("string round trip %q -> %q, %v", s, got, err)
		}
		k := UserTimeKey{User: s, Unix: unix}
		if got, err := (UserTime{}).Decode(string(UserTime{}.Append(nil, k))); err != nil || got != k {
			t.Fatalf("usertime round trip %v -> %v, %v", k, got, err)
		}
		// RawCompare of a key with itself is 0; against a successor it
		// agrees with the typed order.
		ea := string(Int64{}.Append(nil, i))
		if (Int64{}).RawCompare(ea, ea) != 0 {
			t.Fatal("int64 RawCompare(x, x) != 0")
		}
		if i < math.MaxInt64 {
			eb := string(Int64{}.Append(nil, i+1))
			if (Int64{}).RawCompare(ea, eb) >= 0 {
				t.Fatalf("int64 RawCompare(%d, %d) >= 0", i, i+1)
			}
		}
	})
}

// FuzzAscendingList throws arbitrary bytes at the ordinal-list
// decoder, as both element types: it must reject garbage with an
// error, never panic, and what it accepts must re-encode to the very
// same bytes (the encoding is canonical). The bytes, read as
// differences, also build a list that must survive the round trip.
func FuzzAscendingList(f *testing.F) {
	f.Add([]byte(string(AscendingList[uint32]{}.Append(nil, []uint32{0, 1, 5, 300, 70000}))))
	f.Add([]byte(string(AscendingList[uint64]{}.Append(nil, []uint64{math.MaxUint64}))))
	f.Add([]byte("\x02\x05\x00"))
	f.Add([]byte("\x01\x80\x80\x80\x80\x10"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if v, err := (AscendingList[uint32]{}).Decode(string(data)); err == nil {
			if re := (AscendingList[uint32]{}).Append(nil, v); string(re) != string(data) {
				t.Fatalf("uint32 list %v re-encodes %q to %q", v, data, re)
			}
		}
		if v, err := (AscendingList[uint64]{}).Decode(string(data)); err == nil {
			if re := (AscendingList[uint64]{}).Append(nil, v); string(re) != string(data) {
				t.Fatalf("uint64 list %v re-encodes %q to %q", v, data, re)
			}
		}
		var v []uint32
		for i, b := range data {
			next := uint32(b)
			if i > 0 {
				next = v[i-1] + uint32(b)<<(i%24) + 1
				if next <= v[i-1] {
					break
				}
			}
			v = append(v, next)
		}
		got, err := AscendingList[uint32]{}.Decode(string(AscendingList[uint32]{}.Append(nil, v)))
		if err != nil || fmt.Sprint(got) != fmt.Sprint(v) {
			t.Fatalf("round trip %v -> %v, %v", v, got, err)
		}
	})
}

// FuzzDecodeTraceValue throws arbitrary bytes at the shared parser:
// it must reject garbage with an error, never panic, and re-encode
// whatever it accepts losslessly enough to decode again.
func FuzzDecodeTraceValue(f *testing.F) {
	f.Add([]byte("user\t39.984702,116.318417,492,1224730100"))
	f.Add([]byte("key\tuser\t1.000000,2.000000,0,0"))
	f.Add([]byte(string(TraceValue{}.Append(nil, trace.Trace{
		User: "u", Point: geo.Point{Lat: 1, Lon: 2}, Time: time.Unix(3, 0).UTC(),
	}))))
	f.Add([]byte("\x01"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeTraceValue(string(data))
		if err != nil {
			return
		}
		re, err := DecodeTraceValue(string(TraceValue{}.Append(nil, tr)))
		if err != nil {
			t.Fatalf("re-encode of accepted value failed to decode: %v", err)
		}
		if re.User != tr.User || re.Point != tr.Point || !re.Time.Equal(tr.Time) {
			t.Fatalf("re-encode changed value: %+v -> %+v", tr, re)
		}
	})
}

// FuzzScanAll throws arbitrary bytes at the file scanner: corrupt
// input must produce an error or a clean stop, never a panic, and the
// byte-view walk must yield the same frames and the same error as the
// string one.
func FuzzScanAll(f *testing.F) {
	w := NewWriter()
	w.Add("k", "v")
	w.Add("key-2", "value-2")
	f.Add(w.Bytes())
	f.Add([]byte("RCIO\x01"))
	f.Add([]byte("RCIO\x01\x03\x02abcde"))
	f.Add([]byte{})
	long := NewWriter()
	for i := 0; i < 300; i++ {
		long.Add(fmt.Sprintf("key-%03d", i), strings.Repeat("v", i%40))
	}
	f.Add(long.Bytes())
	f.Add(long.Bytes()[:len(long.Bytes())-5])
	f.Fuzz(func(t *testing.T, data []byte) {
		var strs, views []string
		errS := ScanAll(data, func(k, v string) error {
			strs = append(strs, k, v)
			return nil
		})
		errB := ScanAllBytes(data, func(k, v []byte) error {
			views = append(views, string(k), string(v))
			return nil
		})
		if fmt.Sprint(errS) != fmt.Sprint(errB) {
			t.Fatalf("ScanAll error %v, ScanAllBytes error %v", errS, errB)
		}
		if !reflect.DeepEqual(strs, views) {
			t.Fatalf("ScanAll yields %d strings, ScanAllBytes %d, or they differ", len(strs), len(views))
		}
	})
}

// FuzzFileReader throws arbitrary bytes, behind either header, at the
// streaming reader run files are read through: hostile input must end
// in an error or a clean stop — never a panic, and never an allocation
// out of proportion to the input (a v2 block header may claim at most
// DEFLATE's best ratio). Whatever it does yield must also be what
// Next's copying form yields.
func FuzzFileReader(f *testing.F) {
	plain, comp := NewWriter(), NewCompressedWriter(64)
	for i := 0; i < 40; i++ {
		plain.Add(fmt.Sprintf("key-%02d", i), strings.Repeat("v", i))
		comp.Add(fmt.Sprintf("key-%02d", i), strings.Repeat("v", i))
	}
	for _, file := range [][]byte{plain.Bytes(), comp.Bytes()} {
		f.Add(file)
		for _, cut := range []int{1, 3, 7, len(file) / 2} {
			f.Add(file[:len(file)-cut])
		}
	}
	f.Add([]byte("RCIO\x02"))
	f.Add([]byte("RCIO\x02\xff\xff\xff\x1f\x01\x00"))
	f.Add([]byte("RCIO\x01\x03\x02abcde"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		views, err := NewFileReader(int64(len(data)), BytesFetcher(data))
		if err != nil {
			return
		}
		copies, _ := NewFileReader(int64(len(data)), BytesFetcher(data))
		for n := 0; ; n++ {
			k, v, ok, err := views.NextBytes()
			ck, cv, cok, cerr := copies.Next()
			if ok != cok || (err == nil) != (cerr == nil) || string(k) != ck || string(v) != cv {
				t.Fatalf("record %d: NextBytes = (%q, %q, %v, %v), Next = (%q, %q, %v, %v)", n, k, v, ok, err, ck, cv, cok, cerr)
			}
			if err != nil || !ok {
				return
			}
			if len(k)+len(v) > maxInflation*len(data) {
				t.Fatalf("record %d: %d bytes out of a %d-byte file", n, len(k)+len(v), len(data))
			}
		}
	})
}

// FuzzScanLines cuts arbitrary bytes into arbitrary splits and scans
// each the way the engine does: the buffer starts one byte early and
// runs at most overrun bytes past the split. The splits must yield
// every line of the whole-file scan exactly once, in order, unless one
// of them reports a line longer than the overrun; the whole-file scan
// must equal a plain split-trim-drop reference; nothing may panic.
func FuzzScanLines(f *testing.F) {
	f.Add([]byte("a\nbb\r\n\nccc"), []byte{2, 0, 5}, uint16(4))
	f.Add([]byte("user\t1,2,3,4\r\n\r\n\nu\t5,6,7,8\n"), []byte{0}, uint16(64))
	f.Add([]byte("\n\n\r\n\r"), []byte{1}, uint16(1))
	f.Add([]byte(strings.Repeat("x", 40)+"\ny\n"), []byte{3, 7}, uint16(8))
	f.Add([]byte("RCIO\x01no header sniff here\n"), []byte{255}, uint16(0))
	f.Add([]byte{}, []byte{}, uint16(0))
	f.Fuzz(func(t *testing.T, data, cuts []byte, overrun uint16) {
		scan := func(buf []byte, bufStart, start, end int, rangeLimited bool) ([]string, error) {
			var lines []string
			err := ScanLines(buf, int64(bufStart), int64(start), int64(end), rangeLimited, func(k, v []byte) error {
				if k != nil {
					t.Fatalf("line %q scanned with key %q", v, k)
				}
				lines = append(lines, string(v))
				return nil
			})
			return lines, err
		}
		var want []string
		longest := 0
		for _, l := range strings.Split(string(data), "\n") {
			longest = max(longest, len(l))
			if l = strings.TrimSuffix(l, "\r"); l != "" {
				want = append(want, l)
			}
		}
		whole, err := scan(data, 0, 0, len(data), false)
		if err != nil || !reflect.DeepEqual(whole, want) {
			t.Fatalf("whole-file scan = %q, %v; want %q", whole, err, want)
		}
		var split []string
		for start, i := 0, 0; start < len(data); i++ {
			n := 1
			if len(cuts) > 0 {
				n += int(cuts[i%len(cuts)])
			}
			end := min(start+n, len(data))
			bufStart, reqEnd := max(start-1, 0), end+int(overrun)
			lines, err := scan(data[bufStart:min(reqEnd, len(data))], bufStart, start, end, reqEnd <= len(data))
			if err != nil {
				if !strings.Contains(err.Error(), "overrun budget") || longest <= int(overrun) {
					t.Fatalf("split [%d, %d) with overrun %d: %v (longest line %d)", start, end, overrun, err, longest)
				}
				return
			}
			split = append(split, lines...)
			start = end
		}
		if !reflect.DeepEqual(split, whole) {
			t.Fatalf("splits yield %q, whole file %q", split, whole)
		}
	})
}
