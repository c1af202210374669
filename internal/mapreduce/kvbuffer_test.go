package mapreduce

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/recordio"
)

// fillBuffer appends one record per key, filed under its partition,
// each value naming the record's emission rank.
func fillBuffer(b *kvBuffer, keys []string, parts []int) {
	for i, k := range keys {
		b.part = parts[i]
		buf := append(b.tail(), k...)
		buf = fmt.Appendf(buf, "v%d", len(b.index))
		b.add(buf, len(k))
	}
}

// TestPropertyGroupedSortEqualsCompareSort: on random buffers, sort
// gives exactly compareSort's order, through rounds of sort, append and
// sort again (a combined buffer taking more records), under every kind
// of comparator: none, a raw one, a descending one, and one that calls
// keys of distinct bytes equal (which grouping must hand to
// compareSort).
func TestPropertyGroupedSortEqualsCompareSort(t *testing.T) {
	comparators := []struct {
		name string
		cmp  func(a, b string) int
	}{
		{"nil", nil},
		{"raw", recordio.RawString{}.RawCompare},
		{"descending", func(a, b string) int { return strings.Compare(b, a) }},
		{"first-byte", func(a, b string) int { return int(a[0]) - int(b[0]) }},
	}
	rng := rand.New(rand.NewSource(1))
	grouped, sorts := 0, 0
	for c := 0; c < 400; c++ {
		kc := comparators[c%len(comparators)]
		parts := 1 + rng.Intn(8)
		var b kvBuffer
		var g kvGroups
		for round := 0; round < 1+rng.Intn(3); round++ {
			n := 1 + rng.Intn(300)
			distinct := 1 + rng.Intn(n)
			keys, ps := make([]string, n), make([]int, n)
			for i := range keys {
				k := rng.Intn(distinct)
				keys[i] = string([]byte{byte('a' + k%5), byte(k / 5), byte(k / 1280)})[:1+k%3]
				ps[i] = (k*7 + rng.Intn(2)) % parts
			}
			fillBuffer(&b, keys, ps)
			want := b
			want.index = slices.Clone(b.index)
			want.compareSort(kc.cmp, nil, 0)
			was := b.index
			b.sort(kc.cmp, &g)
			sorts++
			if unsafe.SliceData(g.alt) == unsafe.SliceData(was) {
				grouped++
			}
			if !slices.Equal(b.index, want.index) {
				t.Fatalf("case %d (%s, %d partitions) round %d: %d records over %d keys: grouped order differs from the comparison sort",
					c, kc.name, parts, round, len(b.index), distinct)
			}
		}
	}
	if grouped == 0 || grouped == sorts {
		t.Fatalf("%d of %d sorts grouped: both paths must be exercised", grouped, sorts)
	}
}

// kvBufferShape fills a buffer with 65,536 records over 4 partitions
// whose int64 keys keyOf gives, partitioned as partOf says.
func kvBufferShape(keyOf func(i int) int64, partOf func(key string) int) kvBuffer {
	const n = 1 << 16
	var b kvBuffer
	var key [8]byte
	for i := range n {
		binary.BigEndian.PutUint64(key[:], uint64(keyOf(i)))
		b.part = partOf(string(key[:]))
		buf := append(b.tail(), key[:]...)
		buf = append(buf, make([]byte, 24)...) // a point sum's size
		b.add(buf, len(key))
	}
	return b
}

var kvBufferShapes = []struct {
	name string
	buf  func() kvBuffer
}{
	{"kmeans-11-keys", func() kvBuffer {
		return kvBufferShape(func(i int) int64 { return int64(i*7919) % 11 }, func(k string) int { return HashPartition(k, 4) })
	}},
	{"rtree-4-partition-keys", func() kvBuffer {
		return kvBufferShape(func(i int) int64 { return int64(i*7919) % 4 }, func(k string) int { return int(k[7]) })
	}},
	{"distinct", func() kvBuffer {
		return kvBufferShape(func(i int) int64 { return int64(i*7919) % (1 << 16) }, func(k string) int { return HashPartition(k, 4) })
	}},
}

// TestKVBufferSortAllocatesNothing: a map attempt's sorts share one
// scratch, so once it has grown a refilled buffer's sort allocates
// nothing, grouped or not.
func TestKVBufferSortAllocatesNothing(t *testing.T) {
	for _, shape := range kvBufferShapes {
		b, g := shape.buf(), kvGroups{}
		orig := slices.Clone(b.index)
		allocs := testing.AllocsPerRun(5, func() {
			b.index = append(b.index[:0], orig...)
			b.sort(recordio.Int64{}.RawCompare, &g)
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocations per sort", shape.name, allocs)
		}
	}
}

// BenchmarkKVBufferSort sorts one map-side buffer of each shape: the
// k-means combiner's 11 keys, R-tree phase 2's partition-index keys,
// and all-distinct keys, which compareSort serves.
func BenchmarkKVBufferSort(b *testing.B) {
	for _, shape := range kvBufferShapes {
		b.Run(shape.name, func(b *testing.B) {
			buf, g := shape.buf(), kvGroups{}
			orig := slices.Clone(buf.index)
			b.ResetTimer()
			for range b.N {
				b.StopTimer()
				buf.index = append(buf.index[:0], orig...)
				b.StartTimer()
				buf.sort(recordio.Int64{}.RawCompare, &g)
			}
		})
	}
}
