package mapreduce

import (
	"container/heap"
	"sort"
)

// This file implements the sort-based shuffle's merge machinery,
// mirroring Hadoop's intermediate-data path: each map task sorts every
// partition of its output into runs (Hadoop's spill files), and each
// reduce attempt streams one k-way merge over its partition's runs —
// opened as cursors, whether a run sits in memory or in a DFS file —
// into a group iterator. Nothing is re-sorted or materialised on the
// reduce side, and concurrent speculative attempts each open their own
// cursors over the shared read-only runs.
//
// Every stage takes an optional key comparator (Job.KeyCompare,
// Hadoop's RawComparator). A nil comparator means plain byte order on
// the key strings — the legacy text path, kept branch-cheap so string
// jobs pay nothing for the hook. Typed jobs with order-preserving key
// encodings also pass nil (byte order IS their key order); only
// custom sort orders need a function.

// sortRun stable-sorts one map-output partition by key, preserving
// emission order among equal keys (the property the merge's tie-break
// relies on for end-to-end determinism).
func sortRun(kvs []KV, cmp func(a, b string) int) {
	if cmp == nil {
		sort.SliceStable(kvs, func(i, j int) bool { return kvs[i].Key < kvs[j].Key })
		return
	}
	sort.SliceStable(kvs, func(i, j int) bool { return cmp(kvs[i].Key, kvs[j].Key) < 0 })
}

// kvIter yields key-value records in non-decreasing key order.
type kvIter interface {
	next() (KV, bool)
}

// sliceIter iterates an already-sorted slice.
type sliceIter struct {
	kvs []KV
	pos int
}

func (s *sliceIter) next() (KV, bool) {
	if s.pos >= len(s.kvs) {
		return KV{}, false
	}
	kv := s.kvs[s.pos]
	s.pos++
	return kv, true
}

// cursor yields the successive records of one sorted run. ok=false
// ends the run cleanly; an error (a failed run-file read) aborts the
// merge.
type cursor func() (KV, bool, error)

// sliceCursor is the cursor over an in-memory run.
func sliceCursor(kvs []KV) cursor {
	pos := 0
	return func() (KV, bool, error) {
		if pos >= len(kvs) {
			return KV{}, false, nil
		}
		pos++
		return kvs[pos-1], true, nil
	}
}

// mergeSource is one run's position inside the merge heap: its cursor
// and the record it currently offers. ord is the run's position in the
// input order; it breaks key ties so the merge is stable across runs
// (records of equal keys come out in map-task order, exactly as the
// seed's concat-then-stable-sort shuffle produced them).
type mergeSource struct {
	next cursor
	cur  KV
	ord  int
}

// mergeHeap is a min-heap of merge sources ordered by (current key,
// ord) under the given comparator (nil = byte order).
type mergeHeap struct {
	srcs []*mergeSource
	cmp  func(a, b string) int
}

func (h *mergeHeap) Len() int { return len(h.srcs) }

func (h *mergeHeap) Less(i, j int) bool {
	si, sj := h.srcs[i], h.srcs[j]
	ki, kj := si.cur.Key, sj.cur.Key
	if h.cmp == nil {
		if ki != kj {
			return ki < kj
		}
	} else if c := h.cmp(ki, kj); c != 0 {
		return c < 0
	}
	return si.ord < sj.ord
}

func (h *mergeHeap) Swap(i, j int) { h.srcs[i], h.srcs[j] = h.srcs[j], h.srcs[i] }

func (h *mergeHeap) Push(x any) { h.srcs = append(h.srcs, x.(*mergeSource)) }

func (h *mergeHeap) Pop() any {
	old := h.srcs
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	h.srcs = old[:n-1]
	return x
}

// mergeIter streams the k-way merge of sorted runs. kvIter.next has no
// error channel, so a run read error stops the stream immediately and
// is surfaced through Err; callers must check Err after draining and
// before committing any result derived from the stream.
type mergeIter struct {
	h   mergeHeap
	err error
}

// newMergeIter primes one record from every run. Runs must already be
// sorted under cmp; empty runs are skipped.
func newMergeIter(runs []cursor, cmp func(a, b string) int) *mergeIter {
	m := &mergeIter{h: mergeHeap{srcs: make([]*mergeSource, 0, len(runs)), cmp: cmp}}
	for ord, next := range runs {
		kv, ok, err := next()
		if err != nil {
			m.err = err
			m.h.srcs = nil
			return m
		}
		if ok {
			m.h.srcs = append(m.h.srcs, &mergeSource{next: next, cur: kv, ord: ord})
		}
	}
	heap.Init(&m.h)
	return m
}

func (m *mergeIter) next() (KV, bool) {
	if len(m.h.srcs) == 0 {
		return KV{}, false
	}
	s := m.h.srcs[0]
	kv := s.cur
	nkv, ok, err := s.next()
	switch {
	case err != nil:
		m.err = err
		m.h.srcs = nil
	case ok:
		s.cur = nkv
		heap.Fix(&m.h, 0)
	default:
		heap.Pop(&m.h)
	}
	return kv, true
}

// Err reports the first run read error, if any. A non-nil Err means
// the stream ended early and everything consumed from it is suspect.
func (m *mergeIter) Err() error { return m.err }

// MergeRuns merges pre-sorted runs into one sorted slice under plain
// byte order — a drain of the merge the reduce attempts stream.
// Records with equal keys keep run order (and, within a run, the run's
// own order), so merging stable-sorted runs is kv-for-kv equivalent to
// concatenating the unsorted runs and stable-sorting the whole — the
// seed shuffle's behaviour, at O(N log k) instead of O(N log N).
// Exported for benchmarks and downstream tooling.
func MergeRuns(runs [][]KV) []KV {
	cursors := make([]cursor, len(runs))
	total := 0
	for i, r := range runs {
		cursors[i] = sliceCursor(r)
		total += len(r)
	}
	if total == 0 {
		return nil
	}
	out := make([]KV, 0, total)
	it := newMergeIter(cursors, nil) // slice cursors cannot fail
	for kv, ok := it.next(); ok; kv, ok = it.next() {
		out = append(out, kv)
	}
	return out
}

// groupIter turns a sorted kv stream into (key, values) groups, the
// unit a Reducer consumes. It buffers only one group at a time. Group
// boundaries fall where the comparator (nil = byte equality) says two
// adjacent keys differ.
type groupIter struct {
	it  kvIter
	cmp func(a, b string) int
	cur KV
	ok  bool
}

func newGroupIter(it kvIter, cmp func(a, b string) int) *groupIter {
	g := &groupIter{it: it, cmp: cmp}
	g.cur, g.ok = it.next()
	return g
}

// next returns the next key and all its values. ok is false when the
// stream is exhausted.
func (g *groupIter) next() (key string, values []string, ok bool) {
	if !g.ok {
		return "", nil, false
	}
	key = g.cur.Key
	values = append(values, g.cur.Value)
	for {
		g.cur, g.ok = g.it.next()
		if !g.ok || g.keyChanged(key) {
			return key, values, true
		}
		values = append(values, g.cur.Value)
	}
}

func (g *groupIter) keyChanged(key string) bool {
	if g.cmp == nil {
		return g.cur.Key != key
	}
	return g.cmp(g.cur.Key, key) != 0
}
