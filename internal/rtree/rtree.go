// Package rtree implements an R-tree (Guttman, 1984) for indexing
// two-dimensional spatial data, as used by the DJ-Cluster neighborhood
// phase (paper §VII-B) and built in a distributed fashion by the
// MapReduce R-tree construction (paper §VII-C).
//
// The tree indexes point entries — each entry is a location plus a
// unique identifier referencing the object, exactly as in the paper's
// description ("each point in the dataset is defined by two attributes:
// a location in some spatial domain ... and a unique identifier").
// At the leaf level each bounding rectangle contains a single
// datapoint; higher levels aggregate an increasing number of points
// through their minimum bounding rectangles. Queries only traverse the
// bounding rectangles intersecting the query.
//
// Three construction paths are provided:
//
//   - Insert: classic dynamic insertion with quadratic split.
//   - BulkLoad: Sort-Tile-Recursive (STR) packing, used by the
//     per-partition reducers of the MapReduce construction.
//   - Merge: grafting several small R-trees into a global one, the
//     sequential third phase of the MapReduce construction.
package rtree

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/geo"
)

// Entry is a point datum in the tree: a spatial location plus the
// unique identifier of the object it references.
type Entry struct {
	ID    string
	Point geo.Point
}

// DefaultMaxEntries is the default node fan-out (M). Guttman suggests
// small fan-outs for in-memory trees; 16 balances depth and node scan
// cost for datasets in the millions.
const DefaultMaxEntries = 16

// Tree is an in-memory R-tree over point entries. The zero value is
// not usable; create trees with New or BulkLoad.
type Tree struct {
	root       *node
	size       int
	maxEntries int
	minEntries int
}

type node struct {
	rect     geo.Rect
	leaf     bool
	children []*node // interior nodes
	entries  []Entry // leaf nodes
}

// New returns an empty R-tree with the given maximum node fan-out
// (use DefaultMaxEntries if in doubt). The minimum fill is M/2.
func New(maxEntries int) *Tree {
	if maxEntries < 4 {
		maxEntries = 4
	}
	return &Tree{
		root:       &node{leaf: true},
		maxEntries: maxEntries,
		minEntries: maxEntries / 2,
	}
}

// Len returns the number of entries in the tree.
func (t *Tree) Len() int { return t.size }

// Bounds returns the minimum bounding rectangle of all entries. It
// returns a zero Rect for an empty tree.
func (t *Tree) Bounds() geo.Rect {
	if t.size == 0 {
		return geo.Rect{}
	}
	return t.root.rect
}

// Insert adds an entry using Guttman's ChooseLeaf / quadratic-split
// algorithm.
func (t *Tree) Insert(e Entry) {
	if sibling := t.insertRec(t.root, e); sibling != nil {
		// Root split: grow the tree by one level.
		old := t.root
		t.root = &node{
			leaf:     false,
			children: []*node{old, sibling},
			rect:     old.rect.Union(sibling.rect),
		}
	}
	t.size++
}

// insertRec inserts e into the subtree rooted at n. If n overflows and
// splits, n is replaced in place by the first half and the second half
// is returned for the caller to adopt; otherwise it returns nil.
func (t *Tree) insertRec(n *node, e Entry) *node {
	if n.leaf {
		n.entries = append(n.entries, e)
		n.recomputeRect()
		if len(n.entries) > t.maxEntries {
			a, b := t.quadraticSplit(n)
			*n = *a
			return b
		}
		return nil
	}
	// ChooseLeaf step: descend into the child needing least enlargement,
	// ties broken by smaller area.
	r := geo.RectFromPoint(e.Point)
	best := n.children[0]
	bestEnl := best.rect.Enlargement(r)
	for _, c := range n.children[1:] {
		enl := c.rect.Enlargement(r)
		if enl < bestEnl || (enl == bestEnl && c.rect.Area() < best.rect.Area()) {
			best, bestEnl = c, enl
		}
	}
	sibling := t.insertRec(best, e)
	if sibling != nil {
		n.children = append(n.children, sibling)
	}
	n.recomputeRect()
	if len(n.children) > t.maxEntries {
		a, b := t.quadraticSplit(n)
		*n = *a
		return b
	}
	return nil
}

// recomputeRect refreshes a node's MBR from its direct contents.
func (n *node) recomputeRect() {
	if n.leaf {
		if len(n.entries) == 0 {
			n.rect = geo.Rect{}
			return
		}
		r := geo.RectFromPoint(n.entries[0].Point)
		for _, e := range n.entries[1:] {
			r = r.Union(geo.RectFromPoint(e.Point))
		}
		n.rect = r
		return
	}
	if len(n.children) == 0 {
		n.rect = geo.Rect{}
		return
	}
	r := n.children[0].rect
	for _, c := range n.children[1:] {
		r = r.Union(c.rect)
	}
	n.rect = r
}

// quadraticSplit splits an overflowing node into two per Guttman's
// quadratic algorithm: pick the two seeds wasting the most area
// together, then assign remaining items to the group whose MBR grows
// least.
func (t *Tree) quadraticSplit(n *node) (a, b *node) {
	if n.leaf {
		ea, eb := splitItems(n.entries, t.minEntries,
			func(e Entry) geo.Rect { return geo.RectFromPoint(e.Point) })
		a = &node{leaf: true, entries: ea}
		b = &node{leaf: true, entries: eb}
	} else {
		ca, cb := splitItems(n.children, t.minEntries,
			func(c *node) geo.Rect { return c.rect })
		a = &node{leaf: false, children: ca}
		b = &node{leaf: false, children: cb}
	}
	a.recomputeRect()
	b.recomputeRect()
	return a, b
}

// splitItems is the generic quadratic split over any item type.
func splitItems[T any](items []T, minFill int, rectOf func(T) geo.Rect) (ga, gb []T) {
	// Pick seeds: the pair with maximal dead area.
	seedA, seedB := 0, 1
	worst := math.Inf(-1)
	for i := 0; i < len(items); i++ {
		for j := i + 1; j < len(items); j++ {
			ri, rj := rectOf(items[i]), rectOf(items[j])
			d := ri.Union(rj).Area() - ri.Area() - rj.Area()
			if d > worst {
				worst, seedA, seedB = d, i, j
			}
		}
	}
	ra, rb := rectOf(items[seedA]), rectOf(items[seedB])
	ga = append(ga, items[seedA])
	gb = append(gb, items[seedB])
	rest := make([]T, 0, len(items)-2)
	for i, it := range items {
		if i != seedA && i != seedB {
			rest = append(rest, it)
		}
	}
	for len(rest) > 0 {
		// If one group needs all remaining items to reach min fill,
		// assign them all.
		if len(ga)+len(rest) <= minFill {
			for _, it := range rest {
				ga = append(ga, it)
				ra = ra.Union(rectOf(it))
			}
			break
		}
		if len(gb)+len(rest) <= minFill {
			for _, it := range rest {
				gb = append(gb, it)
				rb = rb.Union(rectOf(it))
			}
			break
		}
		// Pick the item with the greatest preference for one group.
		bestIdx, bestDiff, bestToA := 0, -1.0, true
		for i, it := range rest {
			r := rectOf(it)
			da := ra.Enlargement(r)
			db := rb.Enlargement(r)
			diff := math.Abs(da - db)
			if diff > bestDiff {
				bestDiff, bestIdx = diff, i
				bestToA = da < db ||
					(da == db && ra.Area() < rb.Area()) ||
					(da == db && ra.Area() == rb.Area() && len(ga) <= len(gb))
			}
		}
		it := rest[bestIdx]
		rest = append(rest[:bestIdx], rest[bestIdx+1:]...)
		if bestToA {
			ga = append(ga, it)
			ra = ra.Union(rectOf(it))
		} else {
			gb = append(gb, it)
			rb = rb.Union(rectOf(it))
		}
	}
	return ga, gb
}

// BulkLoad builds a packed R-tree from entries using the
// Sort-Tile-Recursive (STR) algorithm. The input slice is not modified.
func BulkLoad(entries []Entry, maxEntries int) *Tree {
	t := New(maxEntries)
	if len(entries) == 0 {
		return t
	}
	es := make([]Entry, len(entries))
	copy(es, entries)

	// Leaf level: sort by lon, tile into vertical slabs, sort each slab
	// by lat, pack runs of maxEntries.
	m := t.maxEntries
	slices.SortFunc(es, func(a, b Entry) int { return cmp.Compare(a.Point.Lon, b.Point.Lon) })
	nLeaves := (len(es) + m - 1) / m
	slabs := int(math.Ceil(math.Sqrt(float64(nLeaves))))
	slabSize := slabs * m

	var leaves []*node
	for start := 0; start < len(es); start += slabSize {
		end := start + slabSize
		if end > len(es) {
			end = len(es)
		}
		slab := es[start:end]
		slices.SortFunc(slab, func(a, b Entry) int { return cmp.Compare(a.Point.Lat, b.Point.Lat) })
		for ls := 0; ls < len(slab); ls += m {
			le := ls + m
			if le > len(slab) {
				le = len(slab)
			}
			leaf := &node{leaf: true, entries: append([]Entry(nil), slab[ls:le]...)}
			leaf.recomputeRect()
			leaves = append(leaves, leaf)
		}
	}
	t.root = packUpward(leaves, m)
	t.size = len(es)
	return t
}

// packUpward builds interior levels over nodes until a single root
// remains, packing in slice order (callers pre-sort spatially).
func packUpward(nodes []*node, m int) *node {
	for len(nodes) > 1 {
		var next []*node
		for start := 0; start < len(nodes); start += m {
			end := start + m
			if end > len(nodes) {
				end = len(nodes)
			}
			parent := &node{leaf: false, children: append([]*node(nil), nodes[start:end]...)}
			parent.recomputeRect()
			next = append(next, parent)
		}
		nodes = next
	}
	return nodes[0]
}

// Merge combines several R-trees into a single global tree indexing all
// their entries — the sequential phase 3 of the paper's MapReduce
// construction. Subtree roots are packed under new interior levels in
// the order given (callers order partitions along the space-filling
// curve, so adjacent subtrees are spatially close).
func Merge(maxEntries int, trees ...*Tree) *Tree {
	out := New(maxEntries)
	var roots []*node
	total := 0
	for _, tr := range trees {
		if tr == nil || tr.size == 0 {
			continue
		}
		roots = append(roots, tr.root)
		total += tr.size
	}
	if len(roots) == 0 {
		return out
	}
	// Equalize subtree heights by wrapping shallow roots.
	maxH := 0
	hs := make([]int, len(roots))
	for i, r := range roots {
		hs[i] = height(r)
		if hs[i] > maxH {
			maxH = hs[i]
		}
	}
	for i, r := range roots {
		for h := hs[i]; h < maxH; h++ {
			wrapped := &node{leaf: false, children: []*node{r}, rect: r.rect}
			r = wrapped
		}
		roots[i] = r
	}
	out.root = packUpward(roots, out.maxEntries)
	out.size = total
	return out
}

func height(n *node) int {
	h := 1
	for !n.leaf {
		n = n.children[0]
		h++
	}
	return h
}

// Search returns all entries whose point lies inside r.
func (t *Tree) Search(r geo.Rect) []Entry {
	var out []Entry
	t.searchNode(t.root, r, &out)
	return out
}

func (t *Tree) searchNode(n *node, r geo.Rect, out *[]Entry) {
	if t.size == 0 || !n.rect.Intersects(r) {
		return
	}
	if n.leaf {
		for _, e := range n.entries {
			if r.Contains(e.Point) {
				*out = append(*out, e)
			}
		}
		return
	}
	for _, c := range n.children {
		t.searchNode(c, r, out)
	}
}

// Within returns all entries within radiusMeters (Haversine) of center.
// This is DJ-Cluster's neighborhood query: the radius circle is first
// over-approximated by a bounding rectangle, then candidates are
// filtered by exact distance.
func (t *Tree) Within(center geo.Point, radiusMeters float64) []Entry {
	box := geo.RectFromPoint(center).ExpandMeters(radiusMeters * 1.001)
	cands := t.Search(box)
	out := cands[:0]
	for _, e := range cands {
		if geo.Haversine(center, e.Point) <= radiusMeters {
			out = append(out, e)
		}
	}
	return out
}

// Nearest returns the k entries nearest to p in squared-Euclidean
// degree space, using best-first branch-and-bound over MBRs (the
// "traverses mainly the branches in which neighbors may be located"
// behaviour from §VII-B). Ties are broken by entry ID for determinism.
func (t *Tree) Nearest(p geo.Point, k int) []Entry {
	if k <= 0 || t.size == 0 {
		return nil
	}
	type cand struct {
		dist float64
		e    Entry
	}
	best := make([]cand, 0, k+1)
	worst := math.Inf(1)
	push := func(e Entry) {
		d := geo.SquaredEuclidean(p, e.Point)
		if len(best) == k && d > worst {
			return
		}
		best = append(best, cand{d, e})
		sort.Slice(best, func(i, j int) bool {
			if best[i].dist != best[j].dist {
				return best[i].dist < best[j].dist
			}
			return best[i].e.ID < best[j].e.ID
		})
		if len(best) > k {
			best = best[:k]
		}
		if len(best) == k {
			worst = best[k-1].dist
		}
	}
	var walk func(n *node)
	walk = func(n *node) {
		if len(best) == k && n.rect.MinDistSquared(p) > worst {
			return
		}
		if n.leaf {
			for _, e := range n.entries {
				push(e)
			}
			return
		}
		// Visit children in order of MinDist for effective pruning.
		kids := append([]*node(nil), n.children...)
		sort.Slice(kids, func(i, j int) bool {
			return kids[i].rect.MinDistSquared(p) < kids[j].rect.MinDistSquared(p)
		})
		for _, c := range kids {
			walk(c)
		}
	}
	walk(t.root)
	out := make([]Entry, len(best))
	for i, c := range best {
		out[i] = c.e
	}
	return out
}

// All returns every entry in the tree in depth-first order.
func (t *Tree) All() []Entry {
	out := make([]Entry, 0, t.size)
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf {
			out = append(out, n.entries...)
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	if t.size > 0 {
		walk(t.root)
	}
	return out
}

// Height returns the tree height (1 for a tree with just a leaf root).
func (t *Tree) Height() int { return height(t.root) }

// CheckInvariants verifies structural invariants: every node's MBR
// contains its contents, leaves are all at the same depth, and the
// entry count matches Len. It returns the first violation found.
func (t *Tree) CheckInvariants() error {
	if t.size == 0 {
		return nil
	}
	leafDepth := -1
	count := 0
	var walk func(n *node, depth int) error
	walk = func(n *node, depth int) error {
		if n.leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if depth != leafDepth {
				return fmt.Errorf("rtree: leaves at depths %d and %d", leafDepth, depth)
			}
			for _, e := range n.entries {
				count++
				if !n.rect.Contains(e.Point) {
					return fmt.Errorf("rtree: leaf MBR %+v excludes entry %v", n.rect, e.Point)
				}
			}
			return nil
		}
		if len(n.children) == 0 {
			return fmt.Errorf("rtree: interior node with no children")
		}
		for _, c := range n.children {
			u := n.rect.Union(c.rect)
			if u != n.rect {
				return fmt.Errorf("rtree: parent MBR %+v does not cover child MBR %+v", n.rect, c.rect)
			}
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 0); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("rtree: counted %d entries, Len() = %d", count, t.size)
	}
	return nil
}

// WriteTo serializes the tree in a compact line-oriented text format
// suitable for the MapReduce distributed cache. Structure is rebuilt on
// load via BulkLoad, so only entries and fan-out are stored.
func (t *Tree) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	c, err := fmt.Fprintf(bw, "rtree\t%d\t%d\n", t.maxEntries, t.size)
	n += int64(c)
	if err != nil {
		return n, err
	}
	for _, e := range t.All() {
		c, err := fmt.Fprintf(bw, "%s\t%.6f\t%.6f\n", e.ID, e.Point.Lat, e.Point.Lon)
		n += int64(c)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadFrom deserializes a tree written by WriteTo, rebuilding the
// packed structure with BulkLoad.
func ReadFrom(r io.Reader) (*Tree, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 64*1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("rtree: empty serialization")
	}
	header := strings.Split(sc.Text(), "\t")
	if len(header) != 3 || header[0] != "rtree" {
		return nil, fmt.Errorf("rtree: bad header %q", sc.Text())
	}
	maxEntries, err := strconv.Atoi(header[1])
	if err != nil {
		return nil, fmt.Errorf("rtree: bad fan-out: %v", err)
	}
	size, err := strconv.Atoi(header[2])
	if err != nil {
		return nil, fmt.Errorf("rtree: bad size: %v", err)
	}
	entries := make([]Entry, 0, size)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) != 3 {
			return nil, fmt.Errorf("rtree: bad entry line %q", line)
		}
		lat, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("rtree: bad lat in %q: %v", line, err)
		}
		lon, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("rtree: bad lon in %q: %v", line, err)
		}
		entries = append(entries, Entry{ID: fields[0], Point: geo.Point{Lat: lat, Lon: lon}})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(entries) != size {
		return nil, fmt.Errorf("rtree: header says %d entries, read %d", size, len(entries))
	}
	return BulkLoad(entries, maxEntries), nil
}
