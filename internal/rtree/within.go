package rtree

import (
	"math"

	"repro/internal/geo"
)

// Within returns, in All() order, every entry within radiusMeters
// (Haversine) of center: DJ-Cluster's neighborhood query, answered in
// entries. The radius circle is over-approximated by a bounding
// rectangle, and the entries inside it pass the exact distance test of
// radiusQuery.
func (t *Tree) Within(center geo.Point, radiusMeters float64) []Entry {
	// The hits are gathered as pointers, in a buffer that stays on the
	// stack for most queries, so the result is allocated once, at size.
	var buf [256]*Entry
	hits := buf[:0]
	t.search(center, radiusMeters, func(_ int, e *Entry) { hits = append(hits, e) })
	if len(hits) == 0 {
		return nil
	}
	out := make([]Entry, len(hits))
	for i, e := range hits {
		out[i] = *e
	}
	return out
}

// AppendWithin appends to dst the ordinals of the entries Within
// returns and yields the extended slice. The walk visits leaves in
// All() order, so the appended ordinals ascend. Ordinals are uint32:
// the caller checks that Len fits.
func (t *Tree) AppendWithin(dst []uint32, center geo.Point, radiusMeters float64) []uint32 {
	t.search(center, radiusMeters, func(ord int, _ *Entry) { dst = append(dst, uint32(ord)) })
	return dst
}

// search calls hit, in All() order, with the ordinal and the entry of
// every entry within radiusMeters of center.
func (t *Tree) search(center geo.Point, radiusMeters float64, hit func(ord int, e *Entry)) {
	q := newRadiusQuery(center, radiusMeters)
	q.search(t, 0, 0, 1, hit)
}

// search walks the nodes [lo, hi) of the given level whose rectangles
// meet the box.
func (q *radiusQuery) search(t *Tree, level, lo, hi int, hit func(ord int, e *Entry)) {
	nodes := t.levels[level][lo:hi]
	if level+1 < len(t.levels) {
		for i := range nodes {
			if n := &nodes[i]; n.rect.Intersects(q.box) {
				q.search(t, level+1, n.lo, n.hi, hit)
			}
		}
		return
	}
	for i := range nodes {
		if n := &nodes[i]; n.rect.Intersects(q.box) {
			for ord := n.lo; ord < n.hi; ord++ {
				if e := &t.entries[ord]; q.box.Contains(e.Point) && q.inCircle(e.Point) {
					hit(ord, e)
				}
			}
		}
	}
}

// radiusQuery is one radius search: the rectangle that bounds the
// circle, and a test whose verdict is geo.Haversine(center, p) <=
// radius's, bit for bit, with no trigonometry for almost every p.
//
// The test. geo.Haversine computes d = 2R·asin(√h) from the haversine
// term h = sin²(Δφ/2) + cos φ₀·cos φ·sin²(Δλ/2), and d ≤ r holds
// exactly when h ≤ h_max = sin²(r/2R). For a candidate inside the box
// the half-angles are tiny, so the pre-test computes
//
//	h̃ = (Δφ/2)² + cos φ₀·c̃·(Δλ/2)²,  c̃ = cos φ₀·(1 − Δφ²/2) − sin φ₀·Δφ,
//
// with cos φ₀ and sin φ₀ hoisted per query and c̃ standing in for
// cos φ = cos(φ₀ + Δφ). It accepts when h̃ < h_max(1−ε), rejects when
// h̃ > h_max(1+ε), and leaves the band between them (and NaN) to
// geo.Haversine itself, so every verdict equals the float one.
//
// The band. Let a and b bound |Δφ| and |Δλ| over the box, in radians
// (its half-widths, 1 % over for the roundings of the candidates'
// degree differences), and x = r/2R. Then, with exact inequalities:
//
//   - y²(1 − y²/3) ≤ sin²y ≤ y² for every y: a relative error of at
//     most max(a, b)²/12 in each term of h̃ (y = Δφ/2, Δλ/2), and of
//     x²/3 in taking h_max as x²;
//   - |cos φ − c̃| ≤ |Δφ|³/6 + Δφ⁴/24 (the Taylor remainders of cos Δφ
//     and sin Δφ, with |cos φ₀|, |sin φ₀| ≤ 1), plus 16 ulps for φ not
//     being exactly φ₀ + Δφ in floats and for c̃'s arithmetic; that
//     error is multiplied by cos φ₀·(Δλ/2)² ≤ cos φ₀·b²/4, which is
//     ~h_max/cos φ₀ at most, so it is taken relative to h_max;
//   - rounding: h̃'s own arithmetic (~8 ulps), h_max's (~3) and
//     geo.Haversine's float pipeline (~12 ulps in its h, ~8 more in
//     sqrt, asin and the products, doubled on the way back to h) come
//     to under 50 ulps ≈ 6e-15. roundoff allows 1e-13: a wider band
//     costs only a few more fallbacks.
//
// If η is the sum of the three, both h and geo.Haversine's float h lie
// within η·max(h̃, h_max) of h̃ near the circle, so the float verdict
// is already decided outside the band when ε = 2η, as long as η < 1/2.
// At 25 m in Beijing ε ≈ 7e-12; at 10 km, 1e-6. The band grows with b²,
// that is with r and with 1/cos φ₀ near the poles, and maxBand turns
// the pre-test off where ε would pass it (past ~290 km at Beijing's
// latitude, within ~0.003° of a pole at 25 m, or where the box spans
// every longitude and b is infinite). It is off too below
// minPretestMeters, where h_max nears the subnormal range, and for a
// centre past ±90°, where φ's rounding outgrows the 16 ulps. Off, lo
// and hi are ∓Inf and every candidate goes to geo.Haversine.
type radiusQuery struct {
	center     geo.Point
	radius     float64
	box        geo.Rect
	cos0, sin0 float64 // cos φ₀, sin φ₀ of the centre's latitude
	lo, hi     float64 // the fallback band h_max(1∓ε) on h̃
}

const (
	// roundoff bounds the relative rounding error of both pipelines,
	// the pre-test's and geo.Haversine's (see radiusQuery).
	roundoff = 1e-13
	// ulp is one unit in the last place of 1.
	ulp = 0x1p-52
	// maxBand is the widest ε the pre-test runs with; past it the
	// first-order error sums above stop being small.
	maxBand = 1e-3
	// minPretestMeters is the smallest radius the pre-test runs for.
	minPretestMeters = 1e-3
)

func newRadiusQuery(center geo.Point, radiusMeters float64) (q radiusQuery) {
	q.center, q.radius = center, radiusMeters
	q.sin0, q.cos0 = math.Sincos(center.Lat * math.Pi / 180)
	// The box. A point within r is at most δ = r/R radians away (δ is
	// taken 0.1 % over, for rounding), so its latitude is within δ of
	// φ₀. Along a path of length δ, |φ| ≤ |φ₀|+δ, so λ moves at most
	// δ/cos(|φ₀|+δ) ≤ δ/(cos φ₀(1−δ²/2) − |sin φ₀|·δ) while that
	// denominator is positive. Otherwise, and where the box would cross
	// ±180°, it spans every longitude.
	delta := 1.001 * radiusMeters / geo.EarthRadiusMeters
	dLon := math.Inf(1)
	if den := q.cos0*(1-delta*delta/2) - math.Abs(q.sin0)*delta; den > 0 {
		dLon = delta / den * (180 / math.Pi)
	}
	if center.Lon-dLon < -180 || center.Lon+dLon > 180 {
		dLon = math.Inf(1)
	}
	dLat := delta * (180 / math.Pi)
	q.box = geo.Rect{
		Min: geo.Point{Lat: center.Lat - dLat, Lon: center.Lon - dLon},
		Max: geo.Point{Lat: center.Lat + dLat, Lon: center.Lon + dLon},
	}
	q.lo, q.hi = math.Inf(-1), math.Inf(1)
	if !(radiusMeters >= minPretestMeters && math.Abs(center.Lat) <= 90) {
		return q
	}
	a := 1.01 * delta
	b := 1.01 * dLon * (math.Pi / 180)
	x := radiusMeters / (2 * geo.EarthRadiusMeters)
	hMax := x * x
	ab := max(a, b)
	cosErr := a*a*a/6 + a*a*a*a/24 + 16*ulp
	eps := 2 * (ab*ab/12 + x*x/3 + q.cos0*b*b/4*cosErr/hMax + roundoff)
	if eps <= maxBand { // false for NaN
		q.lo, q.hi = hMax*(1-eps), hMax*(1+eps)
	}
	return q
}

// approxH is the pre-test's h̃ for p.
func (q *radiusQuery) approxH(p geo.Point) float64 {
	dLat := (p.Lat - q.center.Lat) * math.Pi / 180
	dLon := (p.Lon - q.center.Lon) * math.Pi / 180
	cosLat := q.cos0*(1-dLat*dLat/2) - q.sin0*dLat
	return (dLat*dLat + q.cos0*cosLat*dLon*dLon) / 4
}

// inCircle reports whether p, a point inside the box, lies within the
// radius.
func (q *radiusQuery) inCircle(p geo.Point) bool {
	h := q.approxH(p)
	return h < q.lo || !(h > q.hi) && geo.Haversine(q.center, p) <= q.radius
}
