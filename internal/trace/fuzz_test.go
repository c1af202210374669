package trace

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"
)

// splitParseRecord is the plain strings.Split + strconv record parser,
// with no fast path and no range checks: the reference FuzzParseRecord
// holds ParseRecord to.
func splitParseRecord(rec string) (user string, vals [3]float64, unix int64, err error) {
	user, rest, ok := strings.Cut(rec, "\t")
	if !ok {
		return "", vals, 0, fmt.Errorf("trace: record missing tab: %q", rec)
	}
	fields := strings.Split(rest, ",")
	if len(fields) != 4 {
		return "", vals, 0, fmt.Errorf("trace: record has %d value fields, want 4: %q", len(fields), rec)
	}
	for i, name := range []string{"latitude", "longitude", "altitude"} {
		if vals[i], err = strconv.ParseFloat(fields[i], 64); err != nil {
			return "", vals, 0, fmt.Errorf("trace: bad %s in record %q: %v", name, rec, err)
		}
	}
	if unix, err = strconv.ParseInt(fields[3], 10, 64); err != nil {
		return "", vals, 0, fmt.Errorf("trace: bad unix time in record %q: %v", rec, err)
	}
	return user, vals, unix, nil
}

// FuzzParseRecord is the differential test of ParseRecord's fast paths:
// against the Split+strconv reference it must return the same user,
// the same float64 bits in every field, the same time and the same
// error text. The one difference allowed is the range check the
// reference lacks: a record it accepts with a coordinate off the globe
// or a NaN altitude, ParseRecord rejects.
func FuzzParseRecord(f *testing.F) {
	for _, s := range []string{
		"153\t39.984702,116.318417,492,1224813000",
		"u\t.5,1.,-0.000000,0",
		"u\t+1,1e5,0x1p-2,-1",
		"u\t1.234567890123456,12345678901234567,0,0", // 16 and 17 digits
		"u\t0.12345678901234567890123,1,0,0",         // 23 fraction digits
		"u\t-,1,0,0",                                 // a lone sign
		"u\t1,2,3,9223372036854775808",               // time overflows int64
		"u\t1,2,3,-9223372036854775808",              // and just fits
		"u\t1,2,3,+42",                               // a signed time
		"u\t0.1,-0.2,-777,00012",                     // leading zeros
		"u\t1_0,2,3,4",                               // underscores
		"u\tInf,NaN,inf,0",                           // specials
		"u\t1,,3,4",                                  // an empty field
		"u\t1,2,3",                                   // 3 fields
		"u\t1,2,3,4,5",                               // 5 fields
		"no tab",                                     // no tab
		"a\tb\t1,2,3,4",                              // a tab in the fields
		"u\t200,1,0,0",                               // out of range
		"u\t999999999999999,0.0000000000000000000001,1,1", // the fast path's edges
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, rec string) {
		got, err := ParseRecord(rec)
		user, vals, unix, wantErr := splitParseRecord(rec)
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("ParseRecord(%q) error %v, want %v", rec, err, wantErr)
			}
			return
		}
		lat, lon, alt := vals[0], vals[1], vals[2]
		offGlobe := !(lat >= -90 && lat <= 90 && lon >= -180 && lon <= 180) // NaN included
		switch {
		case offGlobe:
			if err == nil || !strings.Contains(err.Error(), "coordinate out of range") {
				t.Fatalf("ParseRecord(%q) error %v, want the range error", rec, err)
			}
			return
		case math.IsNaN(alt):
			if err == nil || !strings.Contains(err.Error(), "NaN altitude") {
				t.Fatalf("ParseRecord(%q) error %v, want the NaN altitude error", rec, err)
			}
			return
		case err != nil:
			t.Fatalf("ParseRecord(%q): %v; the reference accepts it", rec, err)
		}
		for i, g := range []float64{got.Point.Lat, got.Point.Lon, got.AltitudeFeet} {
			if math.Float64bits(g) != math.Float64bits(vals[i]) {
				t.Fatalf("ParseRecord(%q) field %d = %v (%#x), reference %v (%#x)", rec, i, g, math.Float64bits(g), vals[i], math.Float64bits(vals[i]))
			}
		}
		if got.User != user || !got.Time.Equal(time.Unix(unix, 0)) || got.Time.Location() != time.UTC {
			t.Fatalf("ParseRecord(%q) = %q at %v, reference %q at %d", rec, got.User, got.Time, user, unix)
		}
	})
}

// TestFastPathsMatchStrconv throws random numbers of the fast paths'
// own shape, and past their limits, at decimalField and intField: each
// takes exactly the numbers it is documented to, with strconv's value.
func TestFastPathsMatchStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	digits := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('0' + rng.Intn(10))
		}
		return string(b)
	}
	sign := func(s string) string {
		if rng.Intn(2) == 0 {
			return "-" + s
		}
		return s
	}
	for i := 0; i < 200000; i++ {
		n, frac := 1+rng.Intn(10), 0
		s := digits(n)
		if rng.Intn(4) > 0 {
			frac = 1 + rng.Intn(24)
			s += "." + digits(frac)
		}
		s = sign(s)
		want, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatal(err)
		}
		got, rest, ok := decimalField(s + ",x")
		if ok != (n+frac <= 15) || ok && (rest != "x" || math.Float64bits(got) != math.Float64bits(want)) {
			t.Fatalf("decimalField(%q,x) = %v, %q, %v; strconv %v", s, got, rest, ok, want)
		}
		n = 1 + rng.Intn(20)
		s = sign(digits(n))
		wn, werr := strconv.ParseInt(s, 10, 64)
		if gn, ok := intField(s); ok != (n <= 18) || ok && (werr != nil || gn != wn) {
			t.Fatalf("intField(%q) = %v, %v; strconv %v, %v", s, gn, ok, wn, werr)
		}
	}
}
