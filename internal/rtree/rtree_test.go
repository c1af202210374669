package rtree

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/geo"
)

var beijing = geo.Rect{
	Min: geo.Point{Lat: 39.4, Lon: 115.9},
	Max: geo.Point{Lat: 40.5, Lon: 117.1},
}

func randEntries(n int, seed int64) []Entry {
	rng := rand.New(rand.NewSource(seed))
	es := make([]Entry, n)
	for i := range es {
		es[i] = Entry{
			ID: fmt.Sprintf("e%05d", i),
			Point: geo.Point{
				Lat: beijing.Min.Lat + rng.Float64()*(beijing.Max.Lat-beijing.Min.Lat),
				Lon: beijing.Min.Lon + rng.Float64()*(beijing.Max.Lon-beijing.Min.Lon),
			},
		}
	}
	return es
}

// bruteWithin is the reference implementation for Within: the IDs of
// the entries within r meters of c, by a scan of es.
func bruteWithin(es []Entry, c geo.Point, r float64) map[string]bool {
	out := make(map[string]bool)
	for _, e := range es {
		if geo.Haversine(c, e.Point) <= r {
			out[e.ID] = true
		}
	}
	return out
}

func idsOf(es []Entry) map[string]bool {
	out := make(map[string]bool, len(es))
	for _, e := range es {
		out[e.ID] = true
	}
	return out
}

func sameIDs(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func TestBulkLoadMatchesBruteForce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 16, 17, 100, 2000} {
		es := randEntries(n, int64(n))
		tr := BulkLoad(es, 16)
		if tr.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, tr.Len())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		c := geo.Point{Lat: 39.9, Lon: 116.5}
		if !sameIDs(idsOf(tr.Within(c, 25_000)), bruteWithin(es, c, 25_000)) {
			t.Fatalf("n=%d: search mismatch", n)
		}
	}
}

func TestWithin(t *testing.T) {
	center := geo.Point{Lat: 39.9042, Lon: 116.4074}
	var es []Entry
	// 10 points inside 100m, 10 points well outside.
	for i := 0; i < 10; i++ {
		es = append(es, Entry{
			ID:    fmt.Sprintf("in%d", i),
			Point: geo.Destination(center, float64(i)*36, 50),
		})
	}
	for i := 0; i < 10; i++ {
		es = append(es, Entry{
			ID:    fmt.Sprintf("out%d", i),
			Point: geo.Destination(center, float64(i)*36, 500),
		})
	}
	tr := BulkLoad(es, 8)
	got := tr.Within(center, 100)
	if len(got) != 10 {
		t.Fatalf("Within returned %d entries, want 10", len(got))
	}
	for _, e := range got {
		if !strings.HasPrefix(e.ID, "in") {
			t.Fatalf("unexpected entry %s", e.ID)
		}
	}
}

func TestWithinBoundary(t *testing.T) {
	center := geo.Point{Lat: 39.9, Lon: 116.4}
	justIn := geo.Destination(center, 90, 99.9)
	justOut := geo.Destination(center, 90, 100.5)
	tr := BulkLoad([]Entry{{ID: "in", Point: justIn}, {ID: "out", Point: justOut}}, 8)
	got := tr.Within(center, 100)
	if len(got) != 1 || got[0].ID != "in" {
		t.Fatalf("Within = %v", got)
	}
}

// TestWithinNearPolesAndAntimeridian puts an entry at 0.999·r on
// every whole bearing around centres near a pole and on either side
// of ±180°, where a circle's longitude reach outgrows r/(R·cos φ₀) and
// its box must wrap: Within must find all of them.
func TestWithinNearPolesAndAntimeridian(t *testing.T) {
	for _, c := range []geo.Point{{Lat: 89.9, Lon: 10}, {Lat: 39.9, Lon: 179.9995}, {Lat: -89.99, Lon: -179.9}} {
		for _, r := range []float64{25, 1000, 10_000} {
			es := make([]Entry, 360)
			for i := range es {
				es[i] = Entry{ID: fmt.Sprint(i), Point: geo.Destination(c, float64(i), 0.999*r)}
			}
			if got := len(BulkLoad(es, 16).Within(c, r)); got != len(es) {
				t.Errorf("%v at %v m: found %d of %d", c, r, got, len(es))
			}
		}
	}
}

// TestAppendWithinIsWithinInOrdinals checks that the ordinal search
// answers Within's query on packed, merged and decoded trees: its
// ordinals ascend and index, in All(), exactly the entries Within
// returns, in the same order.
func TestAppendWithinIsWithinInOrdinals(t *testing.T) {
	merged := Merge(8,
		BulkLoad(randEntries(2000, 40), 8),
		BulkLoad(randEntries(5, 41), 8),
		BulkLoad(randEntries(300, 42), 16))
	for name, tr := range map[string]*Tree{
		"bulk":    BulkLoad(randEntries(3000, 43), 16),
		"merged":  merged,
		"decoded": roundTrip(t, merged),
		"empty":   BulkLoad(nil, 8),
	} {
		all := tr.All()
		rng := rand.New(rand.NewSource(44))
		hits := 0
		for q := 0; q < 200; q++ {
			center := geo.Point{
				Lat: beijing.Min.Lat + rng.Float64()*(beijing.Max.Lat-beijing.Min.Lat),
				Lon: beijing.Min.Lon + rng.Float64()*(beijing.Max.Lon-beijing.Min.Lon),
			}
			radius := 500 + rng.Float64()*4000
			want := tr.Within(center, radius)
			got := tr.AppendWithin([]uint32{7}, center, radius)[1:]
			if len(got) != len(want) {
				t.Fatalf("%s: %d ordinals, Within has %d entries", name, len(got), len(want))
			}
			for i, o := range got {
				if i > 0 && o <= got[i-1] {
					t.Fatalf("%s: ordinals %d, %d do not ascend", name, got[i-1], o)
				}
				if all[o] != want[i] {
					t.Fatalf("%s: ordinal %d is %+v, Within's entry %d is %+v", name, o, all[o], i, want[i])
				}
			}
			hits += len(got)
		}
		if hits == 0 && tr.Len() > 0 {
			t.Fatalf("%s: no query hit anything", name)
		}
	}
}

// dwellEntries returns n entries around pois dwell points in Beijing,
// as DJ-Cluster's neighborhood phase sees a user's traces: most within
// 80 m of a dwell point, every tenth a copy of an earlier entry's
// point, and every seventh on the 25 m circle of an earlier entry.
func dwellEntries(n, pois int, seed int64) []Entry {
	rng := rand.New(rand.NewSource(seed))
	centres := randEntries(pois, seed)
	es := make([]Entry, n)
	for i := range es {
		var p geo.Point
		switch {
		case i > 0 && i%10 == 0:
			p = es[rng.Intn(i)].Point
		case i > 0 && i%7 == 0:
			p = geo.Destination(es[rng.Intn(i)].Point, rng.Float64()*360, 25)
		default:
			p = geo.Destination(centres[rng.Intn(pois)].Point, rng.Float64()*360, rng.Float64()*80)
		}
		es[i] = Entry{ID: fmt.Sprintf("d%05d", i), Point: p}
	}
	return es
}

// TestWithinIsAHaversineScan checks both radius searches against a
// full geo.Haversine scan of All(), with every entry as the centre
// (DJ-Cluster's query), on packed, merged and decoded trees: the same
// entries, in All() order.
func TestWithinIsAHaversineScan(t *testing.T) {
	es := dwellEntries(1200, 30, 50)
	merged := Merge(8, BulkLoad(es[:700], 8), BulkLoad(es[700:705], 4), BulkLoad(es[705:], 16))
	for name, tr := range map[string]*Tree{
		"bulk":    BulkLoad(es, 16),
		"merged":  merged,
		"decoded": roundTrip(t, merged),
	} {
		all := tr.All()
		for _, r := range []float64{25, 100} {
			hits := 0
			for _, c := range all {
				var want []uint32
				for j, e := range all {
					if geo.Haversine(c.Point, e.Point) <= r {
						want = append(want, uint32(j))
					}
				}
				if got := tr.AppendWithin(nil, c.Point, r); !slices.Equal(got, want) {
					t.Fatalf("%s r=%v at %v: AppendWithin = %v, scan = %v", name, r, c.Point, got, want)
				}
				got := tr.Within(c.Point, r)
				if len(got) != len(want) {
					t.Fatalf("%s r=%v at %v: Within has %d entries, scan %d", name, r, c.Point, len(got), len(want))
				}
				for i, o := range want {
					if got[i] != all[o] {
						t.Fatalf("%s r=%v at %v: Within's entry %d is %+v, scan's %+v", name, r, c.Point, i, got[i], all[o])
					}
				}
				hits += len(want)
			}
			if hits < 5*len(all) {
				t.Fatalf("%s r=%v: %d hits for %d queries, the fixture is too sparse", name, r, hits, len(all))
			}
		}
	}
}

// TestInCircleMatchesHaversine checks the pre-test against
// geo.Haversine: on random pairs in a Beijing-sized cluster, and on
// points within a few ulps of the circle on many bearings, at centres
// from Beijing to the poles and the antimeridian. Its verdict must be
// Haversine's every time, and it must decide almost every random pair
// without Haversine.
func TestInCircleMatchesHaversine(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	inBeijing := func() geo.Point {
		return geo.Point{
			Lat: beijing.Min.Lat + rng.Float64()*(beijing.Max.Lat-beijing.Min.Lat),
			Lon: beijing.Min.Lon + rng.Float64()*(beijing.Max.Lon-beijing.Min.Lon),
		}
	}
	odd := []geo.Point{{Lat: 0, Lon: 0}, {Lat: -33.9, Lon: 18.4}, {Lat: 64.1, Lon: -21.9},
		{Lat: 80, Lon: 179.9999}, {Lat: 89.99, Lon: 10}, {Lat: -89.9999, Lon: -45}}
	for _, r := range []float64{1, 25, 100, 1000, 10000} {
		var random, decided, in, out int
		check := func(q *radiusQuery, p geo.Point) bool {
			if !q.box.Contains(p) {
				return false
			}
			want := geo.Haversine(q.center, p) <= r
			if got := q.inCircle(p); got != want {
				t.Fatalf("r=%v: %v from %v at %.17g m: pre-test says %v", r, p, q.center, geo.Haversine(q.center, p), got)
			}
			if want {
				in++
			} else {
				out++
			}
			h := q.approxH(p)
			return h < q.lo || h > q.hi
		}
		// Random pairs: the candidate uniform over 1.2 times the box.
		for i := 0; i < 100_000; i++ {
			q := newRadiusQuery(inBeijing(), r)
			lat := q.center.Lat + 0.6*(2*rng.Float64()-1)*(q.box.Max.Lat-q.box.Min.Lat)
			lon := q.center.Lon + 0.6*(2*rng.Float64()-1)*(q.box.Max.Lon-q.box.Min.Lon)
			if q.box.Contains(geo.Point{Lat: lat, Lon: lon}) {
				random++
				if check(&q, geo.Point{Lat: lat, Lon: lon}) {
					decided++
				}
			}
		}
		if decided < random*999/1000 {
			t.Fatalf("r=%v: the pre-test decided %d of %d random pairs", r, decided, random)
		}
		// The circle, on 720 bearings, nudged up to 8 ulps each way.
		in, out = 0, 0
		for i := 0; i < 720; i++ {
			c := inBeijing()
			if i%10 == 0 {
				c = odd[i/10%len(odd)]
			}
			q := newRadiusQuery(c, r)
			p := geo.Destination(c, float64(i)/2, r)
			lat, lon := p.Lat, p.Lon
			for k := 0; k < 8; k++ {
				lat, lon = math.Nextafter(lat, math.Inf(-1)), math.Nextafter(lon, math.Inf(-1))
			}
			for k := -8; k <= 8; k++ {
				check(&q, geo.Point{Lat: lat, Lon: p.Lon})
				check(&q, geo.Point{Lat: p.Lat, Lon: lon})
				lat, lon = math.Nextafter(lat, math.Inf(1)), math.Nextafter(lon, math.Inf(1))
			}
		}
		if in == 0 || out == 0 {
			t.Fatalf("r=%v: the nudged points fall %d in, %d out: they do not straddle the circle", r, in, out)
		}
	}
}

func TestMerge(t *testing.T) {
	all := randEntries(900, 6)
	// Split into 3 spatial partitions by longitude (like SFC partitioning).
	sorted := append([]Entry(nil), all...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Point.Lon < sorted[j].Point.Lon })
	var parts []*Tree
	for i := 0; i < 3; i++ {
		parts = append(parts, BulkLoad(sorted[i*300:(i+1)*300], 16))
	}
	merged := Merge(16, parts...)
	if merged.Len() != 900 {
		t.Fatalf("merged Len = %d", merged.Len())
	}
	if err := merged.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Merged tree must answer queries identically to a direct build.
	c := geo.Point{Lat: 39.9, Lon: 116.45}
	if !sameIDs(idsOf(merged.Within(c, 35_000)), bruteWithin(all, c, 35_000)) {
		t.Fatal("merged tree search mismatch")
	}
}

func TestMergeUnevenHeights(t *testing.T) {
	big := BulkLoad(randEntries(2000, 7), 8) // tall tree
	small := BulkLoad(randEntries(5, 8), 8)  // height 1
	med := BulkLoad(randEntries(100, 9), 8)  // mid height
	empty := BulkLoad(nil, 8)                // empty, must be skipped
	merged := Merge(8, big, small, med, empty, nil)
	if merged.Len() != 2105 {
		t.Fatalf("merged Len = %d, want 2105", merged.Len())
	}
	if err := merged.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeEmpty(t *testing.T) {
	m := Merge(8)
	if m.Len() != 0 {
		t.Fatal("empty merge should be empty")
	}
	m2 := Merge(8, BulkLoad(nil, 8), BulkLoad(nil, 8))
	if m2.Len() != 0 {
		t.Fatal("merge of empties should be empty")
	}
}

// roundTrip encodes tr with WriteTo and decodes it with ReadFrom.
func roundTrip(t *testing.T, tr *Tree) *Tree {
	t.Helper()
	var buf bytes.Buffer
	n, err := tr.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	back, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// TestSerializationRoundTrip checks the structure is shipped, not
// rebuilt: the decoded tree has the same entries in the same order,
// the same height and bounds, for packed, merged and empty trees.
func TestSerializationRoundTrip(t *testing.T) {
	merged := Merge(8,
		BulkLoad(randEntries(2000, 12), 8),
		BulkLoad(randEntries(5, 13), 8),
		BulkLoad(randEntries(100, 14), 16))
	for name, tr := range map[string]*Tree{
		"bulk":   BulkLoad(randEntries(500, 10), 16),
		"single": BulkLoad(randEntries(1, 11), 4),
		"merged": merged,
		"empty":  BulkLoad(nil, 8),
	} {
		back := roundTrip(t, tr)
		if back.Len() != tr.Len() || back.Height() != tr.Height() || back.Bounds() != tr.Bounds() {
			t.Fatalf("%s: Len/Height/Bounds %d/%d/%+v -> %d/%d/%+v", name,
				tr.Len(), tr.Height(), tr.Bounds(), back.Len(), back.Height(), back.Bounds())
		}
		want, got := tr.All(), back.All()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: entry %d: %+v -> %+v", name, i, want[i], got[i])
			}
		}
		if err := back.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestSerializationFullPrecision(t *testing.T) {
	p := geo.Point{Lat: 39.9000004, Lon: 116.4000004}
	back := roundTrip(t, BulkLoad([]Entry{{ID: "a", Point: p}}, 8))
	if got := back.All(); len(got) != 1 || got[0].Point != p {
		t.Fatalf("round trip of %v gave %v", p, got)
	}
}

// TestCodecGoldenDigests pins the serialized form, which the
// distributed cache and the R-tree build's part files carry: the
// SHA-256 of Codec.Append for fixed trees.
func TestCodecGoldenDigests(t *testing.T) {
	for _, c := range []struct {
		name   string
		tree   *Tree
		sha256 string
	}{
		{"empty", BulkLoad(nil, DefaultMaxEntries), "e90f620d276c7f1670e9f3298a451ebcd54ea08e9248e2f1cd05e6e9dd19233a"},
		{"one entry", BulkLoad(randEntries(1, 1), DefaultMaxEntries), "6da23980407700458460cac8c2ad8125760b649ca14962390011f6f6c2276015"},
		{"bulk", BulkLoad(randEntries(5000, 2), 16), "d9834c346ad5c8b87cef9e27f1016194f6a14b5d3d3cfcd082c3bcaa90bb1141"},
		{"merged", Merge(8, BulkLoad(randEntries(2000, 3), 8), nil, BulkLoad(randEntries(5, 4), 8),
			BulkLoad(nil, 8), BulkLoad(randEntries(100, 5), 16)), "0d50c2f9b58727f4901cf46a400741befb488b1ebaebc0faacd96c3c0c17eed8"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(Codec{}.Append(nil, c.tree))); got != c.sha256 {
			t.Errorf("%s: encoding's SHA-256 is %s, want %s", c.name, got, c.sha256)
		}
	}
}

// header returns a blob's header for hand-built malformed trees.
func header(fanOut, size, height uint64) []byte {
	b := append([]byte(magic), version)
	b = binary.AppendUvarint(b, fanOut)
	b = binary.AppendUvarint(b, size)
	return binary.AppendUvarint(b, height)
}

// appendEntry appends one leaf entry's encoding.
func appendEntry(b []byte, id string, lat, lon float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(id)))
	b = append(b, id...)
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(lat))
	return binary.BigEndian.AppendUint64(b, math.Float64bits(lon))
}

func TestReadFromErrors(t *testing.T) {
	var valid bytes.Buffer
	if _, err := BulkLoad(randEntries(40, 15), 4).WriteTo(&valid); err != nil {
		t.Fatal(err)
	}
	blob := valid.Bytes()
	oneLeaf := appendEntry(append(header(4, 1, 1), 1), "a", 39.9, 116.4)
	bad := map[string][]byte{
		"empty":            nil,
		"bad magic":        append([]byte("RTRX"), blob[4:]...),
		"bad version":      append(append([]byte(magic), version+1), blob[5:]...),
		"trailing byte":    append(append([]byte(nil), blob...), 0),
		"fan-out below 4":  appendEntry(append(header(3, 1, 1), 1), "a", 39.9, 116.4),
		"oversized count":  append(header(4, 1<<40, 1), 1),
		"count too large":  append(appendEntry(append(header(4, 2, 1), 1), "a", 39.9, 116.4), make([]byte, minEntryBytes)...),
		"count too small":  appendEntry(appendEntry(append(header(4, 1, 1), 2), "a", 39.9, 116.4), "b", 40, 116),
		"zero height":      appendEntry(append(header(4, 1, 0), 1), "a", 39.9, 116.4),
		"height over size": appendEntry(append(header(4, 1, 2), 1, 1), "a", 39.9, 116.4),
		"empty interior":   appendEntry(appendEntry(append(header(4, 2, 2), 0), "a", 39.9, 116.4), "b", 40, 116),
		"empty leaf":       appendEntry(appendEntry(append(header(4, 2, 2), 2, 0, 2), "a", 39.9, 116.4), "b", 40, 116),
		"NaN coordinate":   appendEntry(append(header(4, 1, 1), 1), "a", math.NaN(), 116.4),
		"ID past the end":  append(append(header(4, 1, 1), 1, 200), make([]byte, 20)...),
		"overlong varint":  append(append([]byte(magic), version), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f),
		// A root over leaf a at depth 1 and, under a one-child node,
		// leaf b at depth 2, in both orders; the header's height is
		// the first leaf's depth plus one.
		"uneven, leaf first": appendEntry(append(appendEntry(append(header(4, 2, 2), 2, 1), "a", 39, 116), 1, 1), "b", 40, 116),
		"uneven, leaf last":  appendEntry(append(appendEntry(append(header(4, 2, 3), 2, 1, 1), "b", 40, 116), 1), "a", 39, 116),
	}
	for i := 0; i < len(blob); i++ {
		bad[fmt.Sprintf("truncated at %d", i)] = blob[:i]
	}
	if _, err := ReadFrom(bytes.NewReader(oneLeaf)); err != nil {
		t.Fatalf("the well-formed base of the hand-built cases: %v", err)
	}
	for name, b := range bad {
		if tr, err := ReadFrom(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: decoded a tree of %d entries, want an error", name, tr.Len())
		}
	}
}

// TestCheckInvariantsRejects breaks a packed tree one way at a time:
// each must be reported.
func TestCheckInvariantsRejects(t *testing.T) {
	for name, breakIt := range map[string]func(tr *Tree){
		"two roots":        func(tr *Tree) { tr.levels[0] = append(tr.levels[0], tr.levels[0][0]) },
		"gap in a level":   func(tr *Tree) { tr.levels[1][1].lo++ },
		"empty node":       func(tr *Tree) { tr.levels[1][0].hi = tr.levels[1][0].lo },
		"entries left out": func(tr *Tree) { tr.entries = append(tr.entries, tr.entries[0]) },
		"leaf MBR":         func(tr *Tree) { tr.levels[len(tr.levels)-1][3].rect.Max.Lat -= 1 },
		"parent MBR":       func(tr *Tree) { tr.levels[0][0].rect.Min.Lon += 1 },
	} {
		tr := BulkLoad(randEntries(200, 16), 4)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: the tree before breaking it: %v", name, err)
		}
		breakIt(tr)
		if tr.CheckInvariants() == nil {
			t.Errorf("%s: CheckInvariants passes", name)
		}
	}
}

func TestHeightGrowth(t *testing.T) {
	if h := BulkLoad(nil, 4).Height(); h != 1 {
		t.Fatalf("empty height = %d", h)
	}
	tr := BulkLoad(randEntries(100, 11), 4)
	if tr.Height() < 3 {
		t.Fatalf("height of 100 entries with M=4: %d, want >= 3", tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicatePoints(t *testing.T) {
	// Many entries at the same location (stationary dwell) must all be
	// stored and returned.
	p := geo.Point{Lat: 39.9, Lon: 116.4}
	var es []Entry
	for i := 0; i < 50; i++ {
		es = append(es, Entry{ID: fmt.Sprintf("d%d", i), Point: p})
	}
	tr := BulkLoad(es, 4)
	if got := len(tr.Within(p, 0)); got != 50 {
		t.Fatalf("Within found %d duplicates, want 50", got)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBoundsTracksEntries(t *testing.T) {
	if b := BulkLoad(nil, 8).Bounds(); b != (geo.Rect{}) {
		t.Fatal("empty tree bounds should be zero")
	}
	a := geo.Point{Lat: 39.5, Lon: 116.0}
	b := geo.Point{Lat: 40.0, Lon: 116.9}
	tr := BulkLoad([]Entry{{ID: "a", Point: a}, {ID: "b", Point: b}}, 8)
	w := geo.Rect{Min: a, Max: b}
	if tr.Bounds() != w {
		t.Fatalf("Bounds = %+v, want %+v", tr.Bounds(), w)
	}
}

// BenchmarkBulkLoad10k clones its input each time, as BulkLoad sorts
// the slice it is given: a reused slice would be timed pre-sorted.
func BenchmarkBulkLoad10k(b *testing.B) {
	es := randEntries(10_000, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BulkLoad(slices.Clone(es), 16)
	}
}

// BenchmarkMerge is the MapReduce construction's phase 3 at scale:
// four partition subtrees of 250 k entries each.
func BenchmarkMerge(b *testing.B) {
	parts := make([]*Tree, 4)
	for i := range parts {
		parts[i] = BulkLoad(randEntries(250_000, int64(25+i)), DefaultMaxEntries)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Merge(DefaultMaxEntries, parts...)
	}
}

func BenchmarkWithin(b *testing.B) {
	tr := BulkLoad(randEntries(100_000, 22), 16)
	center := geo.Point{Lat: 39.9, Lon: 116.4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Within(center, 200)
	}
}

// BenchmarkAppendWithin is BenchmarkWithin's query answered in
// ordinals into a reused slice.
func BenchmarkAppendWithin(b *testing.B) {
	tr := BulkLoad(randEntries(100_000, 22), 16)
	center := geo.Point{Lat: 39.9, Lon: 116.4}
	var ords []uint32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ords = tr.AppendWithin(ords[:0], center, 200)
	}
}

// BenchmarkNeighborhood is DJ-Cluster's query: every entry of dense
// dwell clusters is a centre, at 25 m. The centres are visited in
// generation order, so the tree gets a clone of them.
func BenchmarkNeighborhood(b *testing.B) {
	es := dwellEntries(50_000, 200, 23)
	tr := BulkLoad(slices.Clone(es), 16)
	var ords []uint32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ords = tr.AppendWithin(ords[:0], es[i%len(es)].Point, 25)
	}
}

func BenchmarkReadFrom10k(b *testing.B) {
	var buf bytes.Buffer
	if _, err := BulkLoad(randEntries(10_000, 24), 16).WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
