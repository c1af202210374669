// Package geo provides geodesic primitives used throughout GEPETO:
// distance metrics between spatial coordinates, bounding boxes, speed
// computation and small helpers for moving points across the earth's
// surface.
//
// Two families of metrics are provided, mirroring the paper's §VI:
//
//   - SquaredEuclidean: the squared Euclidean distance in degree space.
//     It is not a true surface distance but preserves the order
//     relationship between candidate points, which is all k-means needs,
//     and it is cheap (no square root, no trigonometry).
//   - Haversine: the great-circle distance over the earth's surface,
//     taking the (spherical approximation of the) shape of the earth
//     into account. More expensive, used when distances must be metric
//     (meters).
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusMeters is the mean earth radius used by the Haversine
// formula, in meters (IUGG mean radius R1).
const EarthRadiusMeters = 6371008.8

// Point is a spatial coordinate in decimal degrees (WGS84).
type Point struct {
	Lat float64 // latitude in decimal degrees, positive north
	Lon float64 // longitude in decimal degrees, positive east
}

// String renders the point as "lat,lon" with six decimal places
// (roughly 0.1 m resolution), the precision GeoLife logs use.
func (p Point) String() string {
	return fmt.Sprintf("%.6f,%.6f", p.Lat, p.Lon)
}

// Valid reports whether the point lies within the WGS84 coordinate
// domain.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

// Metric identifies one of the distance metrics supported by the
// toolkit. The zero value is MetricSquaredEuclidean.
type Metric int

const (
	// MetricSquaredEuclidean is the squared Euclidean distance in
	// degree space (order-preserving, unitless).
	MetricSquaredEuclidean Metric = iota
	// MetricEuclidean is the Euclidean distance in degree space.
	MetricEuclidean
	// MetricHaversine is the great-circle distance in meters.
	MetricHaversine
	// MetricManhattan is the L1 norm in degree space (§VI names it as
	// a typical example distance alongside the Euclidean).
	MetricManhattan
)

// ParseMetric converts a metric name as used on the command line
// ("squaredeuclidean", "euclidean", "haversine") into a Metric.
func ParseMetric(name string) (Metric, error) {
	switch name {
	case "squaredeuclidean", "squared-euclidean", "sqeuclidean":
		return MetricSquaredEuclidean, nil
	case "euclidean":
		return MetricEuclidean, nil
	case "haversine":
		return MetricHaversine, nil
	case "manhattan", "l1":
		return MetricManhattan, nil
	}
	return 0, fmt.Errorf("geo: unknown distance metric %q", name)
}

// String returns the canonical name of the metric.
func (m Metric) String() string {
	switch m {
	case MetricSquaredEuclidean:
		return "squaredeuclidean"
	case MetricEuclidean:
		return "euclidean"
	case MetricHaversine:
		return "haversine"
	case MetricManhattan:
		return "manhattan"
	}
	return fmt.Sprintf("Metric(%d)", int(m))
}

// Distance computes the distance between a and b under the metric.
// The unit depends on the metric: degrees² for squared Euclidean,
// degrees for Euclidean, meters for Haversine.
func (m Metric) Distance(a, b Point) float64 {
	switch m {
	case MetricSquaredEuclidean:
		return SquaredEuclidean(a, b)
	case MetricEuclidean:
		return math.Sqrt(SquaredEuclidean(a, b))
	case MetricHaversine:
		return Haversine(a, b)
	case MetricManhattan:
		return Manhattan(a, b)
	}
	panic("geo: invalid metric " + m.String())
}

// SquaredEuclidean returns the squared Euclidean distance between a and
// b in degree space. It preserves the order relationship between points
// while avoiding the square root, as exploited by the paper's k-means
// experiments.
func SquaredEuclidean(a, b Point) float64 {
	dLat := a.Lat - b.Lat
	dLon := a.Lon - b.Lon
	return dLat*dLat + dLon*dLon
}

// Haversine returns the great-circle distance between a and b in
// meters, using the haversine formula (Sinnott, "Virtues of the
// haversine", 1984), which is numerically stable for small distances.
func Haversine(a, b Point) float64 {
	lat1 := a.Lat * math.Pi / 180
	lat2 := b.Lat * math.Pi / 180
	dLat := (b.Lat - a.Lat) * math.Pi / 180
	dLon := (b.Lon - a.Lon) * math.Pi / 180

	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	h := sinLat*sinLat + math.Cos(lat1)*math.Cos(lat2)*sinLon*sinLon
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusMeters * math.Asin(math.Sqrt(h))
}

// Manhattan returns the L1 distance between a and b in degree space.
func Manhattan(a, b Point) float64 {
	return math.Abs(a.Lat-b.Lat) + math.Abs(a.Lon-b.Lon)
}

// SpeedKmh returns the speed in km/h implied by traveling from a to b
// (great-circle) in dt seconds. It returns +Inf when dt is zero and the
// points differ, and 0 when both the distance and dt are zero.
func SpeedKmh(a, b Point, dtSeconds float64) float64 {
	d := Haversine(a, b)
	if dtSeconds <= 0 {
		if d == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return d / dtSeconds * 3.6
}

// Destination returns the point reached by traveling distanceMeters
// from origin along the given initial bearing (degrees clockwise from
// north), following a great circle.
func Destination(origin Point, bearingDeg, distanceMeters float64) Point {
	lat1 := origin.Lat * math.Pi / 180
	lon1 := origin.Lon * math.Pi / 180
	brng := bearingDeg * math.Pi / 180
	dr := distanceMeters / EarthRadiusMeters

	lat2 := math.Asin(math.Sin(lat1)*math.Cos(dr) +
		math.Cos(lat1)*math.Sin(dr)*math.Cos(brng))
	lon2 := lon1 + math.Atan2(
		math.Sin(brng)*math.Sin(dr)*math.Cos(lat1),
		math.Cos(dr)-math.Sin(lat1)*math.Sin(lat2),
	)
	// Normalize longitude to [-180, 180).
	lon2 = math.Mod(lon2+3*math.Pi, 2*math.Pi) - math.Pi
	return Point{Lat: lat2 * 180 / math.Pi, Lon: lon2 * 180 / math.Pi}
}

// Rect is an axis-aligned bounding rectangle in degree space, used by
// the R-tree. Min and Max are the south-west and north-east corners.
type Rect struct {
	Min, Max Point
}

// RectFromPoint returns the degenerate rectangle containing exactly p.
func RectFromPoint(p Point) Rect {
	return Rect{Min: p, Max: p}
}

// Contains reports whether p lies inside r (inclusive of edges).
func (r Rect) Contains(p Point) bool {
	return p.Lat >= r.Min.Lat && p.Lat <= r.Max.Lat &&
		p.Lon >= r.Min.Lon && p.Lon <= r.Max.Lon
}

// Intersects reports whether r and o overlap (edge contact counts).
func (r Rect) Intersects(o Rect) bool {
	return r.Min.Lat <= o.Max.Lat && r.Max.Lat >= o.Min.Lat &&
		r.Min.Lon <= o.Max.Lon && r.Max.Lon >= o.Min.Lon
}

// Union returns the smallest rectangle containing both r and o.
func (r Rect) Union(o Rect) Rect {
	return Rect{
		Min: Point{Lat: math.Min(r.Min.Lat, o.Min.Lat), Lon: math.Min(r.Min.Lon, o.Min.Lon)},
		Max: Point{Lat: math.Max(r.Max.Lat, o.Max.Lat), Lon: math.Max(r.Max.Lon, o.Max.Lon)},
	}
}
