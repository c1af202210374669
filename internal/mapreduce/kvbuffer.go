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
	"slices"
	"unsafe"
)

// kvEntry locates one record: the key at off in block blk, the value
// right behind it. (blk, off) is also the record's emission order.
type kvEntry struct {
	blk, off, klen, vlen uint32
	part                 uint32
}

// kvBuffer is the sink of a map attempt (through its mapSpiller, which
// picks the partition) and, directly, of a combiner refilling it.
type kvBuffer struct {
	blocks [][]byte // the arena; the last block is the one being filled
	index  []kvEntry
	bytes  int64 // key and value bytes held
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
// double in size from 4 KiB to 1 MiB.
func (b *kvBuffer) tail() []byte {
	n := len(b.blocks)
	if n == 0 || cap(b.blocks[n-1])-len(b.blocks[n-1]) <= min(2*b.maxRec, cap(b.blocks[n-1])/4) {
		size := min(max(b.next, 4<<10), 1<<20)
		b.blocks, b.next, n = append(b.blocks, make([]byte, 0, size)), 2*size, n+1
	}
	return b.blocks[n-1]
}

func (b *kvBuffer) add(buf []byte, klen int) {
	blk := len(b.blocks) - 1
	off := len(b.blocks[blk])
	if len(b.index) == cap(b.index) {
		// Double: append would grow a large index by a quarter at a time.
		b.index = slices.Grow(b.index, max(len(b.index), 64))
	}
	b.index = append(b.index, kvEntry{uint32(blk), uint32(off), uint32(klen), uint32(len(buf) - off - klen), uint32(b.part)})
	b.blocks[blk] = buf
	b.bytes += int64(len(buf) - off)
	b.maxRec = max(b.maxRec, len(buf)-off)
}

// sort orders the index by (partition, key, emission order). With the
// tie-break the order is total, so the unstable sort is a stable one.
func (b *kvBuffer) sort(keyCompare func(a, b string) int) {
	blocks := b.blocks
	slices.SortFunc(b.index, func(x, y kvEntry) int {
		if x.part != y.part {
			return cmp.Compare(x.part, y.part)
		}
		kx, ky := blocks[x.blk][x.off:x.off+x.klen], blocks[y.blk][y.off:y.off+y.klen]
		c := 0
		if keyCompare == nil {
			c = bytes.Compare(kx, ky)
		} else {
			c = keyCompare(view(kx), view(ky))
		}
		if c == 0 {
			c = cmp.Or(cmp.Compare(x.blk, y.blk), cmp.Compare(x.off, y.off))
		}
		return c
	})
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
