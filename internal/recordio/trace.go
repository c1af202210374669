// Domain codecs: the binary trace record every pipeline moves through
// the shuffle, plus the small value structs (points, partial sums,
// timed points, lists) the jobs aggregate.

package recordio

import (
	"fmt"
	"math"
	"time"

	"repro/internal/geo"
	"repro/internal/trace"
)

// traceTag is the first byte of every binary trace-value encoding. No
// text record starts with it (records start with a printable user ID),
// which is what lets DecodeTraceValue dispatch between the binary form
// and the text form without further framing.
const traceTag = 0x01

// TraceValue encodes a trace.Trace as a compact self-contained binary
// value: tag byte, uvarint-length user ID, then latitude, longitude
// and altitude as raw float64 bits and the unix time, all big-endian.
// Decode additionally accepts the text record form (see
// DecodeTraceValue), so a typed mapper reads text uploads and binary
// part files through the same codec.
type TraceValue struct{}

// Append appends the binary encoding of t to dst.
func (TraceValue) Append(dst []byte, t trace.Trace) []byte {
	dst = append(dst, traceTag)
	dst = appendUvarint(dst, uint64(len(t.User)))
	dst = append(dst, t.User...)
	dst = beAppendUint64(dst, math.Float64bits(t.Point.Lat))
	dst = beAppendUint64(dst, math.Float64bits(t.Point.Lon))
	dst = beAppendUint64(dst, math.Float64bits(t.AltitudeFeet))
	dst = beAppendUint64(dst, uint64(t.Time.Unix()))
	return dst
}

// Decode parses a binary or text trace record.
func (TraceValue) Decode(s string) (trace.Trace, error) { return DecodeTraceValue(s) }

// DecodeTraceValue is the one shared trace-record parser: it decodes
// the binary TraceValue form when the tag byte leads, and otherwise
// the text record "user\tlat,lon,alt,unix" (see trace.ParseRecord).
func DecodeTraceValue(s string) (trace.Trace, error) {
	if len(s) > 0 && s[0] == traceTag {
		return decodeBinaryTrace(s)
	}
	return trace.ParseRecord(s)
}

func decodeBinaryTrace(s string) (trace.Trace, error) {
	body := s[1:]
	ulen64, n := uvarint(body)
	if n == 0 || ulen64 > uint64(len(body)) {
		return trace.Trace{}, fmt.Errorf("recordio: truncated binary trace record (%d bytes)", len(s))
	}
	body = body[n:]
	ulen := int(ulen64)
	if len(body) != ulen+32 {
		return trace.Trace{}, fmt.Errorf("recordio: binary trace record body is %d bytes, want %d", len(body), ulen+32)
	}
	user := body[:ulen]
	rest := body[ulen:]
	lat := math.Float64frombits(beUint64(rest))
	lon := math.Float64frombits(beUint64(rest[8:]))
	alt := math.Float64frombits(beUint64(rest[16:]))
	unix := int64(beUint64(rest[24:]))
	p := geo.Point{Lat: lat, Lon: lon}
	if !p.Valid() {
		return trace.Trace{}, fmt.Errorf("recordio: binary trace coordinate out of range: %v", p)
	}
	if math.IsNaN(alt) {
		return trace.Trace{}, fmt.Errorf("recordio: binary trace altitude is NaN")
	}
	return trace.Trace{
		User:         user,
		Point:        p,
		AltitudeFeet: alt,
		Time:         time.Unix(unix, 0).UTC(),
	}, nil
}

// Point encodes a geo.Point as 16 bytes of raw float64 bits. It is a
// value codec; the bytes are not order-preserving.
type Point struct{}

// Append appends the encoding of p to dst.
func (Point) Append(dst []byte, p geo.Point) []byte {
	dst = beAppendUint64(dst, math.Float64bits(p.Lat))
	return beAppendUint64(dst, math.Float64bits(p.Lon))
}

// Decode parses an encoded point.
func (Point) Decode(s string) (geo.Point, error) {
	if len(s) != 16 {
		return geo.Point{}, fmt.Errorf("recordio: point encoding is %d bytes, want 16", len(s))
	}
	return geo.Point{
		Lat: math.Float64frombits(beUint64(s)),
		Lon: math.Float64frombits(beUint64(s[8:])),
	}, nil
}

// PointSum is a running partial sum of point coordinates with a
// count — the k-means map/combiner currency. Carrying the sums as
// full-precision float64s is what fixes the precision loss the old
// text path accumulated by re-rendering partial sums through %f on
// every combine hop.
type PointSum struct {
	LatSum, LonSum float64
	N              int64
}

// Add folds one point into the sum.
func (ps *PointSum) Add(p geo.Point) {
	ps.LatSum += p.Lat
	ps.LonSum += p.Lon
	ps.N++
}

// Merge folds another partial sum into the sum.
func (ps *PointSum) Merge(o PointSum) {
	ps.LatSum += o.LatSum
	ps.LonSum += o.LonSum
	ps.N += o.N
}

// PointSumCodec encodes a PointSum as 24 bytes: two raw float64 sums
// and a big-endian count.
type PointSumCodec struct{}

// Append appends the encoding of v to dst.
func (PointSumCodec) Append(dst []byte, v PointSum) []byte {
	dst = beAppendUint64(dst, math.Float64bits(v.LatSum))
	dst = beAppendUint64(dst, math.Float64bits(v.LonSum))
	return beAppendUint64(dst, uint64(v.N))
}

// Decode parses an encoded PointSum.
func (PointSumCodec) Decode(s string) (PointSum, error) {
	if len(s) != 24 {
		return PointSum{}, fmt.Errorf("recordio: point-sum encoding is %d bytes, want 24", len(s))
	}
	return PointSum{
		LatSum: math.Float64frombits(beUint64(s)),
		LonSum: math.Float64frombits(beUint64(s[8:])),
		N:      int64(beUint64(s[16:])),
	}, nil
}

// TimedPoint is a position fix with its unix timestamp — the MMC
// builder's per-user event value.
type TimedPoint struct {
	Unix int64
	P    geo.Point
}

// TimedPointCodec encodes a TimedPoint as 24 bytes: big-endian unix
// seconds then raw float64 coordinate bits.
type TimedPointCodec struct{}

// Append appends the encoding of v to dst.
func (TimedPointCodec) Append(dst []byte, v TimedPoint) []byte {
	dst = beAppendUint64(dst, uint64(v.Unix))
	dst = beAppendUint64(dst, math.Float64bits(v.P.Lat))
	return beAppendUint64(dst, math.Float64bits(v.P.Lon))
}

// Decode parses an encoded TimedPoint.
func (TimedPointCodec) Decode(s string) (TimedPoint, error) {
	if len(s) != 24 {
		return TimedPoint{}, fmt.Errorf("recordio: timed-point encoding is %d bytes, want 24", len(s))
	}
	return TimedPoint{
		Unix: int64(beUint64(s)),
		P: geo.Point{
			Lat: math.Float64frombits(beUint64(s[8:])),
			Lon: math.Float64frombits(beUint64(s[16:])),
		},
	}, nil
}

// Uint64List encodes a []uint64 as a uvarint count followed by 8
// big-endian bytes per element — the R-tree build's sample batches and
// partition bounds.
type Uint64List struct{}

// Append appends the encoding of v to dst.
func (Uint64List) Append(dst []byte, v []uint64) []byte {
	dst = appendUvarint(dst, uint64(len(v)))
	for _, u := range v {
		dst = beAppendUint64(dst, u)
	}
	return dst
}

// Decode parses an encoded []uint64.
func (Uint64List) Decode(s string) ([]uint64, error) {
	count, n := uvarint(s)
	if n == 0 || uint64(len(s)-n)%8 != 0 || count != uint64(len(s)-n)/8 {
		return nil, fmt.Errorf("recordio: malformed uint64 list (%d bytes)", len(s))
	}
	s = s[n:]
	out := make([]uint64, count)
	for i := range out {
		out[i] = beUint64(s[i*8:])
	}
	return out, nil
}

// AscendingList encodes a strictly increasing []T — a set of handles
// in order, such as R-tree entry ordinals — as a uvarint count, the
// first element as a uvarint, and every later element as its uvarint
// difference from the one before, which is at least 1. Close handles
// cost a byte each. The encoding is canonical: Decode rejects a
// zero difference, a value past T's range, a non-minimal varint, a
// count the bytes cannot hold and trailing bytes, so what it accepts
// re-encodes to the same bytes. Append panics on a list that does not
// strictly increase.
type AscendingList[T uint32 | uint64] struct{}

// Append appends the encoding of v to dst.
func (AscendingList[T]) Append(dst []byte, v []T) []byte {
	dst = appendUvarint(dst, uint64(len(v)))
	if len(v) == 0 {
		return dst
	}
	dst = appendUvarint(dst, uint64(v[0]))
	for i := 1; i < len(v); i++ {
		if v[i] <= v[i-1] {
			panic("recordio: AscendingList element does not increase")
		}
		dst = appendUvarint(dst, uint64(v[i]-v[i-1]))
	}
	return dst
}

// Decode parses an encoded ascending list.
func (AscendingList[T]) Decode(s string) ([]T, error) {
	count, n := minimalUvarint(s)
	if n == 0 || count > uint64(len(s)-n) {
		return nil, fmt.Errorf("recordio: malformed ascending list (%d bytes)", len(s))
	}
	s = s[n:]
	out := make([]T, count)
	limit := uint64(^T(0))
	var v uint64
	for i := range out {
		d, n := minimalUvarint(s)
		if n == 0 {
			return nil, fmt.Errorf("recordio: truncated or malformed ascending list element %d", i)
		}
		s = s[n:]
		switch {
		case i == 0:
			v = d
		case d == 0:
			return nil, fmt.Errorf("recordio: ascending list element %d repeats %d", i, v)
		case d > limit-v:
			return nil, fmt.Errorf("recordio: ascending list element %d overflows", i)
		default:
			v += d
		}
		if v > limit {
			return nil, fmt.Errorf("recordio: ascending list element %d is out of range", i)
		}
		out[i] = T(v)
	}
	if len(s) != 0 {
		return nil, fmt.Errorf("recordio: %d trailing bytes after ascending list", len(s))
	}
	return out, nil
}

// minimalUvarint is uvarint that also rejects (returns 0 bytes for) a
// non-minimal encoding, one whose last byte adds nothing.
func minimalUvarint(s string) (uint64, int) {
	v, n := uvarint(s)
	if n > 1 && s[n-1] == 0 {
		return 0, 0
	}
	return v, n
}

// IDPoint is an identified position — an R-tree entry in transit:
// the trace ID plus its coordinate.
type IDPoint struct {
	ID string
	P  geo.Point
}

// IDPointCodec encodes an IDPoint as a uvarint-length ID followed by
// 16 bytes of raw float64 coordinate bits.
type IDPointCodec struct{}

// Append appends the encoding of v to dst.
func (IDPointCodec) Append(dst []byte, v IDPoint) []byte {
	dst = appendUvarint(dst, uint64(len(v.ID)))
	dst = append(dst, v.ID...)
	dst = beAppendUint64(dst, math.Float64bits(v.P.Lat))
	return beAppendUint64(dst, math.Float64bits(v.P.Lon))
}

// Decode parses an encoded IDPoint.
func (IDPointCodec) Decode(s string) (IDPoint, error) {
	l, n := uvarint(s)
	if n == 0 || l > uint64(len(s)-n) || uint64(len(s)-n)-l != 16 {
		return IDPoint{}, fmt.Errorf("recordio: malformed id-point (%d bytes)", len(s))
	}
	rest := s[n+int(l):]
	return IDPoint{ID: s[n : n+int(l)], P: geo.Point{
		Lat: math.Float64frombits(beUint64(rest)),
		Lon: math.Float64frombits(beUint64(rest[8:])),
	}}, nil
}

// StringList encodes a []string as a uvarint count followed by a
// uvarint length and the raw bytes per element.
type StringList struct{}

// Append appends the encoding of v to dst.
func (StringList) Append(dst []byte, v []string) []byte {
	dst = appendUvarint(dst, uint64(len(v)))
	for _, s := range v {
		dst = appendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return dst
}

// Decode parses an encoded []string.
func (StringList) Decode(s string) ([]string, error) {
	count, n := uvarint(s)
	if n == 0 || count > uint64(len(s)-n) {
		return nil, fmt.Errorf("recordio: malformed string list (%d bytes)", len(s))
	}
	s = s[n:]
	out := make([]string, 0, count)
	for i := uint64(0); i < count; i++ {
		l, n := uvarint(s)
		if n == 0 || l > uint64(len(s)-n) {
			return nil, fmt.Errorf("recordio: truncated string list element %d", i)
		}
		out = append(out, s[n:n+int(l)])
		s = s[n+int(l):]
	}
	if len(s) != 0 {
		return nil, fmt.Errorf("recordio: %d trailing bytes after string list", len(s))
	}
	return out, nil
}
