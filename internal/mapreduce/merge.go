package mapreduce

import "container/heap"

// This file implements the sort-based shuffle's merge machinery,
// mirroring Hadoop's intermediate-data path: each map task sorts every
// partition of its output into runs (Hadoop's spill files), and each
// reduce attempt streams one k-way merge over its partition's runs —
// opened as cursors, whether a run sits in memory or in a DFS file —
// into a group iterator. Nothing is re-sorted or materialised on the
// reduce side, and concurrent speculative attempts each open their own
// cursors over the shared read-only runs.
//
// Every stage takes an optional key comparator (the job's keyCompare,
// Hadoop's RawComparator). A nil comparator means plain byte order on
// the key strings, kept branch-cheap; TypedJob.Build installs the
// MapKey codec's RawCompare or the job's own KeyCompare.

// cursor yields the successive records of one sorted stream — a run, or
// the merge of several — in non-decreasing key order. ok=false ends it
// cleanly; an error (a failed run-file read) aborts whatever consumes
// it. The strings may be views of memory the cursor reads (kvbuffer.go).
type cursor interface {
	next() (KV, bool, error)
}

// sliceCursor is the cursor over a run given as records (MergeRuns).
type sliceCursor []KV

func (s *sliceCursor) next() (KV, bool, error) {
	if len(*s) == 0 {
		return KV{}, false, nil
	}
	kv := (*s)[0]
	*s = (*s)[1:]
	return kv, true, nil
}

// mergeSource is one run's position inside the merge heap: its cursor
// and the record it currently offers. ord is the run's position in the
// input order; it breaks key ties so the merge is stable across runs
// (records of equal keys come out in map-task order, exactly as the
// seed's concat-then-stable-sort shuffle produced them).
type mergeSource struct {
	cursor
	cur KV
	ord int
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

// mergeIter streams the k-way merge of sorted runs; a run's read error
// ends the stream with that error.
type mergeIter struct {
	h mergeHeap
}

// newMergeIter primes one record from every run. Runs must already be
// sorted under cmp; empty runs are skipped.
func newMergeIter(runs []cursor, cmp func(a, b string) int) (*mergeIter, error) {
	m := &mergeIter{h: mergeHeap{srcs: make([]*mergeSource, 0, len(runs)), cmp: cmp}}
	for ord, run := range runs {
		kv, ok, err := run.next()
		if err != nil {
			return nil, err
		}
		if ok {
			m.h.srcs = append(m.h.srcs, &mergeSource{cursor: run, cur: kv, ord: ord})
		}
	}
	heap.Init(&m.h)
	return m, nil
}

func (m *mergeIter) next() (KV, bool, error) {
	if len(m.h.srcs) == 0 {
		return KV{}, false, nil
	}
	s := m.h.srcs[0]
	kv := s.cur
	nkv, ok, err := s.next()
	switch {
	case err != nil:
		return KV{}, false, err
	case ok:
		s.cur = nkv
		heap.Fix(&m.h, 0)
	default:
		heap.Pop(&m.h)
	}
	return kv, true, nil
}

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
		cursors[i] = (*sliceCursor)(&r)
		total += len(r)
	}
	if total == 0 {
		return nil
	}
	out := make([]KV, 0, total)
	it, _ := newMergeIter(cursors, nil) // slice cursors cannot fail
	for kv, ok, _ := it.next(); ok; kv, ok, _ = it.next() {
		out = append(out, kv)
	}
	return out
}

// groupIter turns a sorted kv stream into (key, values) groups, the
// unit a Reducer consumes. It buffers only one group at a time. Group
// boundaries fall where the comparator (nil = byte equality) says two
// adjacent keys differ.
type groupIter struct {
	it   cursor
	cmp  func(a, b string) int
	cur  KV
	ok   bool
	err  error    // from reading ahead; ends the stream once reached
	vals []string // the one values slice, refilled per group
}

func newGroupIter(it cursor, cmp func(a, b string) int) *groupIter {
	g := &groupIter{it: it, cmp: cmp}
	g.cur, g.ok, g.err = it.next()
	return g
}

// next returns the next key and all its values, in a slice the next
// call overwrites. ok is false when the stream is exhausted.
func (g *groupIter) next() (key string, values []string, ok bool, err error) {
	if !g.ok {
		return "", nil, false, g.err
	}
	key = g.cur.Key
	g.vals = append(g.vals[:0], g.cur.Value)
	for {
		g.cur, g.ok, g.err = g.it.next()
		if !g.ok || g.keyChanged(key) {
			return key, g.vals, g.err == nil, g.err
		}
		g.vals = append(g.vals, g.cur.Value)
	}
}

func (g *groupIter) keyChanged(key string) bool {
	if g.cmp == nil {
		return g.cur.Key != key
	}
	return g.cmp(g.cur.Key, key) != 0
}
