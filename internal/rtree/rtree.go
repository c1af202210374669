// Package rtree implements an R-tree (Guttman, 1984) for indexing
// two-dimensional spatial data, as used by the DJ-Cluster neighborhood
// phase (paper §VII-B) and built in a distributed fashion by the
// MapReduce R-tree construction (paper §VII-C).
//
// The tree indexes point entries — each entry is a location plus a
// unique identifier referencing the object, exactly as in the paper's
// description ("each point in the dataset is defined by two attributes:
// a location in some spatial domain ... and a unique identifier").
// Queries only traverse the bounding rectangles intersecting the
// query.
//
// The tree is two flat arrays: the entries, in ordinal order, and the
// nodes, one slice per level, root level first and leaves last. A node
// is a bounding rectangle and a range. A leaf's range is a run of
// entries; any other node's is a run of the next level's nodes. The
// ranges of one level tile the next level in order, so every leaf sits
// at the same depth and no node holds a pointer.
//
// A tree is built once and never changes afterwards:
//
//   - BulkLoad: Sort-Tile-Recursive (STR) packing, used by the
//     per-partition reducers of the MapReduce construction.
//   - Merge: concatenating several small R-trees level by level under
//     new root levels, the sequential third phase of the MapReduce
//     construction.
//
// A tree travels as its own structure (Codec, WriteTo, ReadFrom). The
// encoding lists the nodes in preorder, and the decoder appends each
// node to its level: in preorder a node's children are consecutive on
// their level. The decoded tree has the nodes, entry order and height
// of the encoded one, so the tree DJ-Cluster's mappers search is the
// tree §VII-C built, not a rebuild of its entries.
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
	entries    []Entry  // in ordinal order
	levels     [][]node // root level first, leaves last
	maxEntries int
}

// node is one rectangle of the tree. A leaf covers entries[lo:hi];
// any other node covers nodes [lo:hi) of the level below. The ranges
// of a level tile the level below in order, so every leaf sits at the
// same depth and the leaves' ranges tile the entries.
type node struct {
	rect   geo.Rect
	lo, hi int
}

// emptyTree returns a tree holding no entries, with fan-out m clamped
// to at least minMaxEntries: one level holding one empty leaf.
func emptyTree(m int) *Tree {
	return &Tree{levels: [][]node{{{}}}, maxEntries: max(m, minMaxEntries)}
}

// Len returns the number of entries in the tree.
func (t *Tree) Len() int { return len(t.entries) }

// Bounds returns the minimum bounding rectangle of all entries. It
// returns a zero Rect for an empty tree.
func (t *Tree) Bounds() geo.Rect { return t.levels[0][0].rect }

// leaf returns the leaf over es[lo:hi], lo < hi.
func leaf(es []Entry, lo, hi int) node {
	r := geo.RectFromPoint(es[lo].Point)
	for _, e := range es[lo+1 : hi] {
		r = r.Union(geo.RectFromPoint(e.Point))
	}
	return node{rect: r, lo: lo, hi: hi}
}

// parent returns the node over below[lo:hi], lo < hi.
func parent(below []node, lo, hi int) node {
	r := below[lo].rect
	for _, c := range below[lo+1 : hi] {
		r = r.Union(c.rect)
	}
	return node{rect: r, lo: lo, hi: hi}
}

// BulkLoad builds a packed R-tree from entries using the
// Sort-Tile-Recursive (STR) algorithm. It sorts entries in place and
// keeps the slice as the tree's own (All), so the caller hands it over
// and must not modify it afterwards. The pipelines build the slice for
// the tree alone; a caller that still needs its order passes a copy.
func BulkLoad(entries []Entry, maxEntries int) *Tree {
	t := emptyTree(maxEntries)
	if len(entries) == 0 {
		return t
	}
	// Leaf level: sort by lon, tile into vertical slabs, sort each slab
	// by lat, pack runs of maxEntries. Every slab but the last is a
	// whole number of leaves.
	m := t.maxEntries
	slices.SortFunc(entries, func(a, b Entry) int { return cmp.Compare(a.Point.Lon, b.Point.Lon) })
	nLeaves := (len(entries) + m - 1) / m
	slabs := int(math.Ceil(math.Sqrt(float64(nLeaves))))
	slabSize := slabs * m

	leaves := make([]node, 0, nLeaves)
	for start := 0; start < len(entries); start += slabSize {
		end := min(start+slabSize, len(entries))
		slices.SortFunc(entries[start:end], func(a, b Entry) int { return cmp.Compare(a.Point.Lat, b.Point.Lat) })
		for lo := start; lo < end; lo += m {
			leaves = append(leaves, leaf(entries, lo, min(lo+m, end)))
		}
	}
	t.entries = entries
	t.levels = packUpward([][]node{leaves}, m)
	return t
}

// packUpward puts levels of parents, m to a node in order, on top of
// levels until its top level is a single root (callers pre-sort
// spatially).
func packUpward(levels [][]node, m int) [][]node {
	for below := levels[0]; len(below) > 1; below = levels[0] {
		level := make([]node, 0, (len(below)+m-1)/m)
		for lo := 0; lo < len(below); lo += m {
			level = append(level, parent(below, lo, min(lo+m, len(below))))
		}
		levels = slices.Insert(levels, 0, level)
	}
	return levels
}

// Merge combines several R-trees into a single global tree indexing all
// their entries — the sequential phase 3 of the paper's MapReduce
// construction. Subtree roots are packed under new interior levels in
// the order given (callers order partitions along the space-filling
// curve, so adjacent subtrees are spatially close). A shorter subtree
// is raised to the tallest's height by one-child nodes over its root.
// The merged tree copies the subtrees' entries and rectangles and
// leaves the subtrees as they were.
func Merge(maxEntries int, trees ...*Tree) *Tree {
	out := emptyTree(maxEntries)
	var parts []*Tree
	h, n := 0, 0
	for _, tr := range trees {
		if tr != nil && tr.Len() > 0 {
			parts = append(parts, tr)
			h = max(h, tr.Height())
			n += tr.Len()
		}
	}
	if len(parts) == 0 {
		return out
	}
	// raised is a part's level i of h: the part raised to height h by
	// one-child nodes over its root.
	raised := func(tr *Tree, i int) []node {
		if j := i - h + tr.Height(); j >= 0 {
			return tr.levels[j]
		}
		return []node{{rect: tr.Bounds(), lo: 0, hi: 1}}
	}
	forest := make([][]node, h)
	for i := range forest {
		size := 0
		for _, tr := range parts {
			size += len(raised(tr, i))
		}
		forest[i] = make([]node, 0, size)
	}
	// Concatenate the parts level by level, offsetting each part's
	// ranges by what the parts before it put on the level below.
	entries := make([]Entry, 0, n)
	for _, tr := range parts {
		off := len(entries)
		entries = append(entries, tr.entries...)
		for i := h - 1; i >= 0; i-- {
			next := len(forest[i])
			for _, nd := range raised(tr, i) {
				forest[i] = append(forest[i], node{rect: nd.rect, lo: nd.lo + off, hi: nd.hi + off})
			}
			off = next
		}
	}
	out.entries = entries
	out.levels = packUpward(forest, out.maxEntries)
	return out
}

// All returns every entry in the tree: entry i is the entry of
// ordinal i. The slice is the tree's own and must not be modified.
func (t *Tree) All() []Entry { return t.entries }

// Height returns the tree height (1 for a tree with just a leaf root).
func (t *Tree) Height() int { return len(t.levels) }

// CheckInvariants verifies structural invariants: the top level is a
// single root, each level's ranges tile the level below (or, on the
// leaf level, the entries) in order with no empty node, and every
// node's MBR contains its contents. It returns the first violation
// found.
func (t *Tree) CheckInvariants() error {
	if len(t.levels[0]) != 1 {
		return fmt.Errorf("rtree: %d roots", len(t.levels[0]))
	}
	if t.Len() == 0 {
		return nil
	}
	for i, level := range t.levels {
		leaves := i == len(t.levels)-1
		size := len(t.entries)
		if !leaves {
			size = len(t.levels[i+1])
		}
		next := 0
		for _, n := range level {
			if n.lo != next || n.hi <= n.lo || n.hi > size {
				return fmt.Errorf("rtree: level %d node covers [%d, %d) after %d of %d", i, n.lo, n.hi, next, size)
			}
			next = n.hi
			for k := n.lo; k < n.hi; k++ {
				if leaves {
					if p := t.entries[k].Point; !n.rect.Contains(p) {
						return fmt.Errorf("rtree: leaf MBR %+v excludes entry %v", n.rect, p)
					}
				} else if c := t.levels[i+1][k].rect; n.rect.Union(c) != n.rect {
					return fmt.Errorf("rtree: parent MBR %+v does not cover child MBR %+v", n.rect, c)
				}
			}
		}
		if next != size {
			return fmt.Errorf("rtree: level %d covers %d of %d", i, next, size)
		}
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
	dst = binary.AppendUvarint(dst, uint64(t.Len()))
	dst = binary.AppendUvarint(dst, uint64(t.Height()))
	return t.appendNode(dst, 0, 0)
}

// appendNode appends node i of the given level, and below it its
// subtree, in preorder.
func (t *Tree) appendNode(dst []byte, level, i int) []byte {
	n := t.levels[level][i]
	dst = binary.AppendUvarint(dst, uint64(n.hi-n.lo))
	if level+1 < len(t.levels) {
		for c := n.lo; c < n.hi; c++ {
			dst = t.appendNode(dst, level+1, c)
		}
		return dst
	}
	for _, e := range t.entries[n.lo:n.hi] {
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
	d.size = int(size)
	d.t = &Tree{entries: make([]Entry, 0, size), levels: make([][]node, h), maxEntries: int(fanOut)}
	if err := d.node(0); err != nil {
		return nil, err
	}
	if d.t.Len() != d.size {
		return nil, fmt.Errorf("rtree: leaves hold %d entries, header says %d", d.t.Len(), size)
	}
	if len(d.s) != 0 {
		return nil, fmt.Errorf("rtree: %d trailing bytes", len(d.s))
	}
	return d.t, nil
}

// decoder walks the preorder node list into t. In preorder, a node's
// children are consecutive on their level, and its entries in the
// entry list, so each node is appended to its level once its
// contents are.
type decoder struct {
	s    string
	size int // the header's entry count
	t    *Tree
}

func (d *decoder) uvarint(what string) (uint64, error) {
	v, n := uvarint(d.s)
	if n <= 0 {
		return 0, fmt.Errorf("rtree: truncated or malformed %s", what)
	}
	d.s = d.s[n:]
	return v, nil
}

func (d *decoder) node(level int) error {
	c, err := d.uvarint("node count")
	if err != nil {
		return err
	}
	t := d.t
	if level == len(t.levels)-1 {
		return d.readLeaf(c)
	}
	if c == 0 || c > uint64(len(d.s)) {
		return fmt.Errorf("rtree: interior node of %d children at depth %d", c, level)
	}
	lo := len(t.levels[level+1])
	for range c {
		if err := d.node(level + 1); err != nil {
			return err
		}
	}
	t.levels[level] = append(t.levels[level], parent(t.levels[level+1], lo, lo+int(c)))
	return nil
}

// readLeaf decodes a leaf of c entries.
func (d *decoder) readLeaf(c uint64) error {
	t := d.t
	lo := t.Len()
	if c > uint64(d.size-lo) || (c == 0 && d.size > 0) {
		return fmt.Errorf("rtree: leaf of %d entries in a tree of %d (%d placed)", c, d.size, lo)
	}
	for range c {
		l, err := d.uvarint("entry ID length")
		if err != nil {
			return err
		}
		if l > uint64(len(d.s)) || uint64(len(d.s))-l < 16 {
			return fmt.Errorf("rtree: truncated entry")
		}
		e := Entry{ID: d.s[:l]}
		e.Point.Lat = math.Float64frombits(beUint64(d.s[l:]))
		e.Point.Lon = math.Float64frombits(beUint64(d.s[l+8:]))
		if math.IsNaN(e.Point.Lat) || math.IsNaN(e.Point.Lon) {
			return fmt.Errorf("rtree: entry %q has a NaN coordinate", e.ID)
		}
		t.entries = append(t.entries, e)
		d.s = d.s[l+16:]
	}
	n := node{} // the root of an empty tree
	if c > 0 {
		n = leaf(t.entries, lo, t.Len())
	}
	leaves := len(t.levels) - 1
	t.levels[leaves] = append(t.levels[leaves], n)
	return nil
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
