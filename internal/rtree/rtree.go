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
// A tree is built once and never changes afterwards:
//
//   - BulkLoad: Sort-Tile-Recursive (STR) packing, used by the
//     per-partition reducers of the MapReduce construction.
//   - Merge: grafting several small R-trees into a global one, the
//     sequential third phase of the MapReduce construction.
//
// A tree travels as its own structure (Codec, WriteTo, ReadFrom): the
// decoded tree has the nodes, entry order and height of the encoded
// one, so the tree DJ-Cluster's mappers search is the tree §VII-C
// built, not a rebuild of its entries.
//
// An entry's ordinal is its index in All(). The order is fixed once a
// tree is built and survives the codec, so an ordinal is a handle on
// an entry that every holder of the same tree (or of its encoding)
// resolves alike: AppendWithin answers a neighborhood query in
// ordinals.
package rtree

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
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

// minMaxEntries is the smallest fan-out a tree is built with.
const minMaxEntries = 4

// Tree is an immutable in-memory R-tree over point entries. Create
// trees with BulkLoad or Merge, or decode one (ReadFrom, Codec); an
// empty tree is BulkLoad(nil, m).
type Tree struct {
	root       *node
	size       int
	maxEntries int
}

type node struct {
	rect     geo.Rect
	leaf     bool
	children []*node // interior nodes
	entries  []Entry // leaf nodes
	count    int     // entries in the subtree
}

// emptyTree returns a tree holding no entries, with fan-out m clamped
// to at least minMaxEntries.
func emptyTree(m int) *Tree {
	return &Tree{root: &node{leaf: true}, maxEntries: max(m, minMaxEntries)}
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

// recomputeRect refreshes a node's MBR and entry count from its
// direct contents.
func (n *node) recomputeRect() {
	if n.leaf {
		n.count = len(n.entries)
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
	n.count = n.children[0].count
	for _, c := range n.children[1:] {
		r = r.Union(c.rect)
		n.count += c.count
	}
	n.rect = r
}

// BulkLoad builds a packed R-tree from entries using the
// Sort-Tile-Recursive (STR) algorithm. The input slice is not modified.
func BulkLoad(entries []Entry, maxEntries int) *Tree {
	t := emptyTree(maxEntries)
	if len(entries) == 0 {
		return t
	}
	es := make([]Entry, len(entries))
	copy(es, entries)

	// Leaf level: sort by lon, tile into vertical slabs, sort each slab
	// by lat, pack runs of maxEntries. Leaves share es: the tree never
	// changes after construction.
	m := t.maxEntries
	slices.SortFunc(es, func(a, b Entry) int { return cmp.Compare(a.Point.Lon, b.Point.Lon) })
	nLeaves := (len(es) + m - 1) / m
	slabs := int(math.Ceil(math.Sqrt(float64(nLeaves))))
	slabSize := slabs * m

	leaves := make([]*node, 0, nLeaves)
	for start := 0; start < len(es); start += slabSize {
		slab := es[start:min(start+slabSize, len(es))]
		slices.SortFunc(slab, func(a, b Entry) int { return cmp.Compare(a.Point.Lat, b.Point.Lat) })
		for ls := 0; ls < len(slab); ls += m {
			le := min(ls+m, len(slab))
			leaf := &node{leaf: true, entries: slab[ls:le:le]}
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
		next := make([]*node, 0, (len(nodes)+m-1)/m)
		for start := 0; start < len(nodes); start += m {
			end := min(start+m, len(nodes))
			parent := &node{leaf: false, children: nodes[start:end:end]}
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
// curve, so adjacent subtrees are spatially close). The merged tree
// shares the subtrees' nodes.
func Merge(maxEntries int, trees ...*Tree) *Tree {
	out := emptyTree(maxEntries)
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
			wrapped := &node{leaf: false, children: []*node{r}, rect: r.rect, count: r.count}
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

// All returns every entry in the tree in depth-first order: entry i
// is the entry of ordinal i.
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
// contains its contents and its entry count is its subtree's, leaves
// are all at the same depth, and the entry count matches Len. It
// returns the first violation found.
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
			if n.count != len(n.entries) {
				return fmt.Errorf("rtree: leaf of %d entries counts %d", len(n.entries), n.count)
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
		sum := 0
		for _, c := range n.children {
			sum += c.count
		}
		if sum != n.count {
			return fmt.Errorf("rtree: interior node counts %d entries, its children %d", n.count, sum)
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

// The serialized form ships the tree's own structure:
//
//	"RTRE", version byte 1
//	uvarint fan-out, uvarint entry count, uvarint height
//	the nodes in preorder, each a uvarint count of its children
//	(interior node) or entries (leaf); the leaves are exactly the
//	nodes at depth height-1
//	a leaf entry: uvarint ID length, the ID, then the big-endian
//	float64 bits of lat and of lon
//
// Coordinates keep full precision. Rectangles are not stored: the
// decoder recomputes them from the contents, bottom up.
const (
	magic   = "RTRE"
	version = 1
	// minEntryBytes is the smallest encoded entry: an empty ID's
	// length byte and two float64s.
	minEntryBytes = 1 + 16
)

// Codec encodes a *Tree in the serialized form; it is the value codec
// of the MapReduce construction's subtrees.
type Codec struct{}

// Append appends the encoding of t to dst.
func (Codec) Append(dst []byte, t *Tree) []byte {
	dst = append(dst, magic...)
	dst = append(dst, version)
	dst = binary.AppendUvarint(dst, uint64(t.maxEntries))
	dst = binary.AppendUvarint(dst, uint64(t.size))
	dst = binary.AppendUvarint(dst, uint64(t.Height()))
	return appendNode(dst, t.root)
}

func appendNode(dst []byte, n *node) []byte {
	if !n.leaf {
		dst = binary.AppendUvarint(dst, uint64(len(n.children)))
		for _, c := range n.children {
			dst = appendNode(dst, c)
		}
		return dst
	}
	dst = binary.AppendUvarint(dst, uint64(len(n.entries)))
	for _, e := range n.entries {
		dst = binary.AppendUvarint(dst, uint64(len(e.ID)))
		dst = append(dst, e.ID...)
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(e.Point.Lat))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(e.Point.Lon))
	}
	return dst
}

// Decode parses an encoded tree. Entry IDs alias s. Malformed input —
// truncated, with trailing bytes, with counts the remaining bytes
// cannot hold, or whose leaves disagree with the header — is an error.
func (Codec) Decode(s string) (*Tree, error) {
	if !strings.HasPrefix(s, magic) {
		return nil, fmt.Errorf("rtree: not a serialized tree (bad magic)")
	}
	if len(s) == len(magic) || s[len(magic)] != version {
		return nil, fmt.Errorf("rtree: unsupported serialization version")
	}
	d := decoder{s: s[len(magic)+1:]}
	fanOut, err := d.uvarint("fan-out")
	if err != nil {
		return nil, err
	}
	size, err := d.uvarint("entry count")
	if err != nil {
		return nil, err
	}
	h, err := d.uvarint("height")
	if err != nil {
		return nil, err
	}
	if fanOut < minMaxEntries || fanOut > math.MaxInt32 {
		return nil, fmt.Errorf("rtree: fan-out %d out of range", fanOut)
	}
	if size > uint64(len(d.s)/minEntryBytes) {
		return nil, fmt.Errorf("rtree: %d entries cannot fit in %d bytes", size, len(d.s))
	}
	// No built tree is taller than its entry count: BulkLoad packs at
	// least four per node, and Merge of k non-empty trees adds at most
	// k-1 levels above the tallest while holding at least k-1 more
	// entries. The bound also caps the decoder's recursion.
	if h < 1 || h > max(size, 1) {
		return nil, fmt.Errorf("rtree: height %d invalid for %d entries", h, size)
	}
	d.leafDepth = int(h) - 1
	d.entries = make([]Entry, size)
	root, err := d.node(0)
	if err != nil {
		return nil, err
	}
	if d.next != len(d.entries) {
		return nil, fmt.Errorf("rtree: leaves hold %d entries, header says %d", d.next, size)
	}
	if len(d.s) != 0 {
		return nil, fmt.Errorf("rtree: %d trailing bytes", len(d.s))
	}
	return &Tree{root: root, size: int(size), maxEntries: int(fanOut)}, nil
}

// decoder walks the preorder node list. All leaves share entries,
// which the header sizes and the leaves fill in order.
type decoder struct {
	s         string
	leafDepth int
	entries   []Entry
	next      int
}

func (d *decoder) uvarint(what string) (uint64, error) {
	v, n := uvarint(d.s)
	if n <= 0 {
		return 0, fmt.Errorf("rtree: truncated or malformed %s", what)
	}
	d.s = d.s[n:]
	return v, nil
}

func (d *decoder) node(depth int) (*node, error) {
	c, err := d.uvarint("node count")
	if err != nil {
		return nil, err
	}
	if depth == d.leafDepth {
		if c > uint64(len(d.entries)-d.next) || (c == 0 && len(d.entries) > 0) {
			return nil, fmt.Errorf("rtree: leaf of %d entries in a tree of %d (%d placed)", c, len(d.entries), d.next)
		}
		return d.leaf(int(c))
	}
	if c == 0 || c > uint64(len(d.s)) {
		return nil, fmt.Errorf("rtree: interior node of %d children at depth %d", c, depth)
	}
	n := &node{children: make([]*node, c)}
	for i := range n.children {
		if n.children[i], err = d.node(depth + 1); err != nil {
			return nil, err
		}
	}
	n.recomputeRect()
	return n, nil
}

func (d *decoder) leaf(c int) (*node, error) {
	n := &node{leaf: true, entries: d.entries[d.next : d.next+c : d.next+c]}
	d.next += c
	for i := range n.entries {
		l, err := d.uvarint("entry ID length")
		if err != nil {
			return nil, err
		}
		if l > uint64(len(d.s)) || uint64(len(d.s))-l < 16 {
			return nil, fmt.Errorf("rtree: truncated entry")
		}
		e := &n.entries[i]
		e.ID = d.s[:l]
		e.Point.Lat = math.Float64frombits(beUint64(d.s[l:]))
		e.Point.Lon = math.Float64frombits(beUint64(d.s[l+8:]))
		if math.IsNaN(e.Point.Lat) || math.IsNaN(e.Point.Lon) {
			return nil, fmt.Errorf("rtree: entry %q has a NaN coordinate", e.ID)
		}
		d.s = d.s[l+16:]
	}
	n.recomputeRect()
	return n, nil
}

// uvarint decodes an unsigned varint from the front of s, as
// binary.Uvarint does for a byte slice.
func uvarint(s string) (uint64, int) {
	var v uint64
	for i := 0; i < len(s) && i < binary.MaxVarintLen64; i++ {
		b := s[i]
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, -1
			}
			return v | uint64(b)<<(7*i), i + 1
		}
		v |= uint64(b&0x7f) << (7 * i)
	}
	return 0, 0
}

// beUint64 reads 8 big-endian bytes from the front of s; the caller
// has checked len(s) >= 8.
func beUint64(s string) uint64 {
	return uint64(s[0])<<56 | uint64(s[1])<<48 | uint64(s[2])<<40 | uint64(s[3])<<32 |
		uint64(s[4])<<24 | uint64(s[5])<<16 | uint64(s[6])<<8 | uint64(s[7])
}

// WriteTo writes the tree's serialized form to w.
func (t *Tree) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(Codec{}.Append(nil, t))
	return int64(n), err
}

// ReadFrom reads a tree WriteTo wrote, restoring its structure.
func ReadFrom(r io.Reader) (*Tree, error) {
	var b strings.Builder
	if _, err := io.Copy(&b, r); err != nil {
		return nil, err
	}
	return Codec{}.Decode(b.String())
}
