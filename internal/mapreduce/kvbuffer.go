// The kvbuffer: map output held as bytes. Records are appended to an
// arena — the key's encoding, then the value's — and located by an
// index of fixed-size entries, which is what gets sorted; they are read
// back as views of the arena, not as per-record strings. User code is
// handed those views and what it decodes may alias them, so arena bytes
// are never moved or written again, only left to the GC. The arena is a
// list of blocks, each filled once: growing one flat slice would copy —
// and allocate — everything emitted so far five times over.

package mapreduce

import (
	"bytes"
	"cmp"
	"math/bits"
	"slices"
	"strings"
	"unsafe"
)

// kvEntry locates one record: the key at off in block blk, the value
// right behind it. (blk, off) is also the record's emission order.
type kvEntry struct {
	blk, off, klen, vlen uint32
	part                 uint32
}

// kvBuffer holds a map attempt's records (its mapSpiller picks their
// partition) and, with only its arena in use, the fold's pending values.
type kvBuffer struct {
	blocks [][]byte // the arena; the last block is the one being filled
	index  []kvEntry
	bytes  int64 // key and value bytes held
	limit  int64 // bytes at which the holder empties the buffer; 0: never
	next   int   // capacity of the next block
	maxRec int   // the largest record so far
	part   int   // the partition the next record is filed under
}

// view returns b as a string without copying it. The bytes must not
// change while the string is reachable.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// tail starts a new block when the next record might not fit the
// current one: append would copy the whole block to make room (as it
// still does for a record that dwarfs the ones before it). Blocks
// double in size from 4 KiB to 1 MiB, but none reaches much past the
// limit: the buffer is emptied there.
func (b *kvBuffer) tail() []byte {
	n := len(b.blocks)
	if n == 0 || cap(b.blocks[n-1])-len(b.blocks[n-1]) <= min(2*b.maxRec, cap(b.blocks[n-1])/4) {
		size := min(max(b.next, 4<<10), 1<<20)
		if b.limit > 0 {
			size = min(size, max(int(b.limit-b.bytes)+4*b.maxRec, 4<<10))
		}
		b.blocks, b.next, n = append(b.blocks, make([]byte, 0, size)), 2*size, n+1
	}
	return b.blocks[n-1]
}

// full reports whether the buffer has reached its limit.
func (b *kvBuffer) full() bool { return b.limit > 0 && b.bytes >= b.limit }

// keep takes the record appended to tail() into the arena and returns it.
func (b *kvBuffer) keep(buf []byte) []byte {
	blk := len(b.blocks) - 1
	off := len(b.blocks[blk])
	b.blocks[blk] = buf
	b.bytes += int64(len(buf) - off)
	b.maxRec = max(b.maxRec, len(buf)-off)
	return buf[off:]
}

// add keeps the record appended to tail() and indexes it under b.part.
func (b *kvBuffer) add(buf []byte, klen int) {
	blk, off := len(b.blocks)-1, len(b.blocks[len(b.blocks)-1])
	if len(b.index) == cap(b.index) {
		// Double: append would grow a large index by a quarter at a time.
		b.index = slices.Grow(b.index, max(len(b.index), 64))
	}
	rec := b.keep(buf)
	b.index = append(b.index, kvEntry{uint32(blk), uint32(off), uint32(klen), uint32(len(rec) - klen), uint32(b.part)})
}

const groupFraction = 4 // sort leaves over len(index)/groupFraction distinct keys to compareSort

// kvGroups is sort's scratch, reused by all the sorts of a map attempt.
type kvGroups struct {
	table []uint32  // by hash of the key bytes: group number + 1, 0 if free
	heads []kvEntry // each group's first entry
	next  []uint32  // each group's size, then its next slot in alt
	order []uint32  // group numbers in sorted order
	alt   []kvEntry // the second index; free between sorts
}

// sort orders the index by (partition, key, emission order) in O(n + d
// log d) for d distinct keys: it groups entries by (partition, key
// bytes), sorts the groups' heads, and places each group in index order
// in the second index, swapped in. Index order within a key is (block,
// offset) order — records are appended in it, sorts keep it, a sorted
// (combined) buffer appends behind — so this is compareSort's order,
// which serves near-distinct keys and distinct keys keyCompare equates.
func (b *kvBuffer) sort(keyCompare func(a, b string) int, g *kvGroups) {
	n, size := len(b.index), 2<<bits.Len(uint(len(b.index)/groupFraction)) // over twice the groups
	table := slices.Grow(g.table[:0], size)[:size]
	clear(table)
	g.table, g.heads, g.next, g.order = table, g.heads[:0], g.next[:0], g.order[:0]
	for i := range b.index {
		e := &b.index[i]
		key := b.blocks[e.blk][e.off : e.off+e.klen]
		slot := HashPartition(view(key), size) // a power of two: FNV-1a's low bits
		for ; table[slot] != 0; slot = (slot + 1) & (size - 1) {
			if h := g.heads[table[slot]-1]; h.part == e.part && bytes.Equal(b.blocks[h.blk][h.off:h.off+h.klen], key) {
				break
			}
		}
		if id := uint32(len(g.heads)); table[slot] == 0 && id == uint32(n/groupFraction) {
			b.compareSort(keyCompare, g, i) // near-distinct keys
			return
		} else if table[slot] == 0 {
			g.heads, g.next, g.order = append(g.heads, *e), append(g.next, 0), append(g.order, id)
			table[slot] = id + 1
		}
		e.part = table[slot] - 1 // its group number, until the placement
		g.next[e.part]++
	}
	order := b.entryOrder(keyCompare, false)
	slices.SortFunc(g.order, func(x, y uint32) int { return order(g.heads[x], g.heads[y]) })
	at := uint32(0)
	for i, id := range g.order {
		if i > 0 && order(g.heads[g.order[i-1]], g.heads[id]) == 0 {
			b.compareSort(keyCompare, g, n)
			return
		}
		at, g.next[id] = at+g.next[id], at
	}
	alt := slices.Grow(g.alt[:0], n)[:n]
	for _, e := range b.index {
		id := e.part
		e.part = g.heads[id].part
		alt[g.next[id]] = e
		g.next[id]++
	}
	b.index, g.alt = alt, b.index
}

// compareSort is sort by comparison, once the first grouped entries have their partition back.
func (b *kvBuffer) compareSort(keyCompare func(a, b string) int, g *kvGroups, grouped int) {
	for i := range b.index[:grouped] {
		b.index[i].part = g.heads[b.index[i].part].part
	}
	slices.SortFunc(b.index, b.entryOrder(keyCompare, true))
}

// entryOrder orders by (partition, key) and, given tie, by emission (block, offset): a total order.
func (b *kvBuffer) entryOrder(keyCompare func(a, b string) int, tie bool) func(x, y kvEntry) int {
	blocks := b.blocks
	if keyCompare == nil {
		keyCompare = strings.Compare
	}
	return func(x, y kvEntry) int {
		if x.part != y.part {
			return cmp.Compare(x.part, y.part)
		}
		kx, ky := blocks[x.blk][x.off:x.off+x.klen], blocks[y.blk][y.off:y.off+y.klen]
		// unsafe.String, not view: view stays a call in this closure's inlined copy.
		c := keyCompare(unsafe.String(unsafe.SliceData(kx), len(kx)), unsafe.String(unsafe.SliceData(ky), len(ky)))
		if c == 0 && tie {
			c = cmp.Or(cmp.Compare(x.blk, y.blk), cmp.Compare(x.off, y.off))
		}
		return c
	}
}

// eachPart calls fn with every partition's stretch of the sorted index.
func (b *kvBuffer) eachPart(fn func(part int, run kvRun) error) error {
	for lo, hi := 0, 0; lo < len(b.index); lo = hi {
		for hi < len(b.index) && b.index[hi].part == b.index[lo].part {
			hi++
		}
		if err := fn(int(b.index[lo].part), kvRun{b.blocks, b.index[lo:hi]}); err != nil {
			return err
		}
	}
	return nil
}

// kvRun is a sorted slice of a kvBuffer's index over its arena: the
// in-memory form of a run and, consuming its index, the cursor over it.
type kvRun struct {
	blocks [][]byte
	index  []kvEntry
}

func (r *kvRun) record(e kvEntry) (key, value []byte) {
	rec := r.blocks[e.blk][e.off : e.off+e.klen+e.vlen]
	return rec[:e.klen], rec[e.klen:]
}

func (r *kvRun) next() (KV, bool, error) {
	if len(r.index) == 0 {
		return KV{}, false, nil
	}
	k, v := r.record(r.index[0])
	r.index = r.index[1:]
	return KV{view(k), view(v)}, true, nil
}
