// Sorted runs and the map-side spiller. A run is the only thing a map
// attempt produces and a reduce attempt consumes: one partition's
// records, sorted, either held in memory — a sorted slice of the
// attempt's kvbuffer — or written to DFS as a recordio file, optionally
// DEFLATE-compressed. A map task appends what it emits to one kvbuffer,
// and each time that reaches the budget it is sorted and sealed into run
// files.
//
// A job with a combiner folds its records as they are emitted, before
// the kvbuffer (in-mapper combining: Lin & Dyer, Data-Intensive Text
// Processing with MapReduce, 2010, §3.1). A table keyed by each key's
// encoded bytes collects the values in an arena. Once a key has
// foldBatch values pending, and they outweigh its heads (its earlier
// output under the key), the job's combiner — one instance per
// attempt — runs over the heads and those values, and what it emits
// under the key becomes the new heads. A full arena folds every key and starts again with only
// the heads, unless they would fill over 1/spillFraction of it; then,
// and at the end, the heads move to the kvbuffer. So the kvbuffer only
// ever holds folded records, and the combiner runs nowhere else. The
// schedule depends on nothing but the bytes emitted, so it is the same
// on every executor; it does decide how often a combiner runs, and
// over how much of its own output: zero, one or many times, as in
// Hadoop.

package mapreduce

import (
	"cmp"
	"fmt"

	"repro/internal/dfs"
	"repro/internal/recordio"
)

// spillDir is the DFS directory holding a job's run files, removed
// when the job finishes. Concurrent jobs must therefore not share a
// name (they already could not: history and output paths collide too).
func spillDir(job *Job) string { return "_shuffle/" + job.Name }

// RunDesc is the face of a run that crosses process boundaries: where
// its file is and how much it holds.
type RunDesc struct {
	Path    string // DFS file; empty for a run held in memory
	Records int64
	Bytes   int64 // raw key+value bytes, pre-compression
}

// Run is one sorted run of a single reduce partition. Only its RunDesc
// crosses the wire, which loses nothing: out-of-process workers force
// every run to a file; only the in-process executor holds one in memory.
type Run struct {
	RunDesc
	mem kvRun
}

// open returns a fresh cursor over the run. Each reduce attempt opens
// its own (with its own fetch window, for a file), so concurrent
// speculative attempts never share read state.
func (r Run) open(store dfs.Store) (cursor, error) {
	if r.Path == "" {
		it := r.mem // a copy: the cursor consumes its index
		return &it, nil
	}
	return openRunFile(store, r.Path)
}

// fileCursor streams one run file through ranged DFS reads, holding one
// fetch window, not the file. Records are views of the reader's memory.
type fileCursor struct {
	r    *recordio.FileReader
	path string
}

func openRunFile(store dfs.Store, path string) (cursor, error) {
	size, err := store.Size(path)
	if err != nil {
		return nil, fmt.Errorf("spill run %s: %v", path, err)
	}
	r, err := recordio.NewFileReader(size, func(off, n int64) ([]byte, error) {
		return store.ReadRange(path, off, n)
	})
	if err != nil {
		return nil, fmt.Errorf("spill run %s: %v", path, err)
	}
	return &fileCursor{r, path}, nil
}

func (c *fileCursor) next() (KV, bool, error) {
	k, v, ok, err := c.r.NextBytes()
	if err != nil {
		return KV{}, false, fmt.Errorf("spill run %s: %v", c.path, err)
	}
	return KV{Key: view(k), Value: view(v)}, ok, nil
}

const (
	// foldBatch is how many values a key collects before the combiner
	// folds them into its heads — once they also outweigh the heads, so
	// that what the combiner re-reads is never more than what was
	// emitted, and a combiner whose output grows (DJ-Cluster's union)
	// costs linear time, not quadratic.
	foldBatch = 64
	// combineBufferBytes is the fold arena's size when the job sets no
	// MaxShuffleBytes.
	combineBufferBytes = 1 << 20
	// spillFraction: heads still over 1/spillFraction of the arena once
	// every key is folded move to the kvbuffer — the next fold would
	// come too soon to pay.
	spillFraction = 2
)

// mapSpiller owns one map attempt's kvbuffer and turns it into runs.
// It is the recordSink the mapper's emissions go to.
type mapSpiller struct {
	store dfs.Store
	spec  TaskSpec
	// forceFiles seals every run to a file even if the budget never
	// bound: an out-of-process task cannot hand its runs over otherwise.
	forceFiles bool

	buf      kvBuffer // its limit is the budget
	groups   kvGroups // the scratch of every sort
	bound    bool     // the budget was reached at least once
	spillSeq int
	fold     *fold // nil without a combiner
	err      error // first failure; add becomes a no-op after

	runs  [][]Run   // per partition, spill order
	stats TaskStats // the attempt's counter deltas, committed winner-only
}

func newMapSpiller(store dfs.Store, ctx *TaskContext, spec TaskSpec, forceFiles bool) *mapSpiller {
	sp := &mapSpiller{
		store: store, spec: spec, forceFiles: forceFiles,
		buf: kvBuffer{limit: spec.Job.MaxShuffleBytes}, runs: make([][]Run, spec.NumReducers),
	}
	if spec.Job.newCombiner != nil {
		sp.fold = newFold(sp, ctx)
	}
	return sp
}

func (sp *mapSpiller) tail() []byte {
	if sp.fold != nil {
		return sp.fold.arena.tail()
	}
	return sp.buf.tail()
}

// add takes one emitted record: into the fold, given a combiner, else
// into the buffer. TypedEmit has no error channel, so a failure is
// latched: the map loop stops at the record that raised it and finish
// reports it.
func (sp *mapSpiller) add(buf []byte, klen int) {
	if sp.err != nil {
		return
	}
	sp.stats.MapOutputRecords++
	if sp.fold != nil {
		sp.fold.emit(buf, klen)
		return
	}
	cur := sp.buf.blocks[len(sp.buf.blocks)-1]
	if part, ok := sp.partition(view(buf[len(cur):][:klen])); ok {
		sp.buffer(buf, klen, part)
	}
}

// partition routes a key to its reduce partition, latching an illegal one.
func (sp *mapSpiller) partition(key string) (int, bool) {
	part, n := HashPartition, sp.spec.NumReducers
	if sp.spec.Job.partitioner != nil {
		part = sp.spec.Job.partitioner
	}
	p := part(key, n)
	if p < 0 || p >= n {
		sp.err = fmt.Errorf("illegal partition %d for key %q (%d reducers)", p, key, n)
		return 0, false
	}
	return p, true
}

// buffer files the record at the buffer's tail under part, and spills
// the buffer once it reaches the budget.
func (sp *mapSpiller) buffer(buf []byte, klen, part int) {
	sp.buf.part = part
	sp.buf.add(buf, klen)
	if sp.buf.full() {
		sp.bound = true
		sp.buf.sort(sp.spec.Job.keyCompare, &sp.groups)
		sp.err = sp.seal(true)
	}
}

// bufferCopy files a copy of a record that lives elsewhere.
func (sp *mapSpiller) bufferCopy(key, value string, part int) {
	if sp.err == nil {
		sp.buffer(append(append(sp.buf.tail(), key...), value...), len(key), part)
	}
}

// seal turns each partition's stretch of the sorted buffer into one
// run — written to DFS when toFile is set, a slice of the buffer
// otherwise — and starts an empty buffer.
func (sp *mapSpiller) seal(toFile bool) error {
	job := sp.spec.Job
	err := sp.buf.eachPart(func(p int, mem kvRun) error {
		run := Run{RunDesc: RunDesc{Records: int64(len(mem.index))}, mem: mem}
		for _, e := range mem.index {
			run.Bytes += int64(e.klen + e.vlen)
		}
		if toFile {
			var w interface {
				AddBytes(key, value []byte)
				Bytes() []byte
			} = recordio.NewWriter()
			if job.CompressSpill {
				w = recordio.NewCompressedWriter(0)
			}
			for _, e := range mem.index {
				w.AddBytes(mem.record(e))
			}
			data := w.Bytes()
			run.Path = fmt.Sprintf("%s/%s-a%04d-spill-%04d-p%05d",
				spillDir(job), sp.spec.TaskID, sp.spec.Attempt, sp.spillSeq, p)
			if err := sp.store.Create(run.Path, data, sp.spec.Node); err != nil {
				return fmt.Errorf("spill %s: %v", run.Path, err)
			}
			run.mem = kvRun{}
			sp.stats.SpillFiles++
			sp.stats.SpillBytes += int64(len(data))
		}
		sp.runs[p] = append(sp.runs[p], run)
		sp.stats.SpilledRecords += run.Records
		return nil
	})
	sp.spillSeq++
	next := kvBuffer{limit: sp.buf.limit}
	if toFile { // the records were copied out and more may follow
		next.index, next.next = sp.buf.index[:0], int(sp.buf.bytes)+4*sp.buf.maxRec
	}
	sp.buf = next
	return err
}

// finish seals what is left after mapper cleanup, the fold's heads
// included, and returns the attempt's runs per partition. Once the
// budget has bound the tail goes to files too, spilled or not: an
// attempt's runs are all of one kind, and one that outgrew its budget
// leaves nothing in driver memory.
func (sp *mapSpiller) finish() ([][]Run, error) {
	if sp.err == nil && sp.fold != nil {
		sp.fold.finish()
	}
	if sp.err == nil {
		sp.buf.sort(sp.spec.Job.keyCompare, &sp.groups)
		sp.err = sp.seal(sp.bound || sp.forceFiles)
	}
	return sp.runs, sp.err
}

// fold is a combining map attempt's table: each key emitted since the
// arena was last emptied, with its partition, its heads and its
// pending values, all views of the arena. Arena bytes are never
// written again — the combiner may keep what it decodes from them — so
// an arena is left to the GC, not reused.
type fold struct {
	sp    *mapSpiller
	comb  reducer
	ctx   TaskContext // the combiner's, bound once: its emissions come back to add
	arena kvBuffer    // blocks only; its limit is the budget or combineBufferBytes
	index map[string]int
	keys  []foldKey
	cur   int      // the key being folded; -1 outside Reduce
	heads []string // cur's new heads
}

// foldKey is one key of the fold: its values, heads first.
type foldKey struct {
	key   string
	part  int
	heads int
	owed  int // bytes of the heads less those of the pending values
	vals  []string
}

// newFold sets up the attempt's one combiner instance.
func newFold(sp *mapSpiller, ctx *TaskContext) *fold {
	f := &fold{sp: sp, comb: sp.spec.Job.newCombiner(), ctx: *ctx, index: map[string]int{}, cur: -1}
	f.arena.limit = cmp.Or(sp.spec.Job.MaxShuffleBytes, combineBufferBytes)
	f.ctx.out = f
	if err := f.comb.Setup(&f.ctx); err != nil {
		sp.err = fmt.Errorf("combiner: setup: %v", err)
	}
	return f
}

// emit takes the record the mapper emitted at the arena's tail as one
// more pending value of its key.
func (f *fold) emit(buf []byte, klen int) {
	rec := f.arena.keep(buf)
	key := view(rec[:klen])
	i, ok := f.index[key]
	if !ok {
		part, ok := f.sp.partition(key)
		if !ok {
			return
		}
		i = len(f.keys)
		var vals []string
		if i < cap(f.keys) {
			vals = f.keys[:i+1][i].vals[:0] // a dropped key's
		}
		f.keys = append(f.keys, foldKey{key: key, part: part, vals: vals})
		f.index[key] = i
	}
	g := &f.keys[i]
	g.vals, g.owed = append(g.vals, view(rec[klen:])), g.owed-(len(rec)-klen)
	if len(g.vals)-g.heads >= foldBatch && g.owed <= 0 {
		f.combine(i)
	}
	if f.arena.full() {
		f.flush()
	}
}

// combine runs the combiner over key i's heads and pending values, in
// emission order, and makes what it emits under the key the new heads.
func (f *fold) combine(i int) {
	g := &f.keys[i]
	f.cur, f.heads = i, f.heads[:0]
	err := f.comb.Reduce(&f.ctx, g.key, g.vals)
	f.cur = -1
	f.sp.stats.CombineInputRecords += int64(len(g.vals))
	if err != nil && f.sp.err == nil {
		f.sp.err = fmt.Errorf("combiner: %v", err)
	}
	g.vals, g.heads, g.owed = append(g.vals[:0], f.heads...), len(f.heads), 0
	for _, h := range f.heads {
		g.owed += len(h)
	}
}

// tail is where the combiner appends what it emits: the arena, as
// the mapper does.
func (f *fold) tail() []byte { return f.arena.tail() }

// add takes a record the combiner emitted at the arena's tail: a new
// head of the key being folded, or for the kvbuffer — a record under
// another key, or from Cleanup.
func (f *fold) add(buf []byte, klen int) {
	f.sp.stats.CombineOutputRecords++
	rec := buf[len(f.arena.blocks[len(f.arena.blocks)-1]):]
	if f.cur >= 0 && string(rec[:klen]) == f.keys[f.cur].key {
		rec = f.arena.keep(buf)
		f.heads = append(f.heads, view(rec[klen:]))
		return
	}
	if part, ok := f.sp.partition(view(rec[:klen])); ok {
		f.sp.bufferCopy(view(rec[:klen]), view(rec[klen:]), part)
	}
}

// foldAll folds every key with values pending.
func (f *fold) foldAll() {
	for i := range f.keys {
		if f.sp.err == nil && len(f.keys[i].vals) > f.keys[i].heads {
			f.combine(i)
		}
	}
}

// flush empties a full arena: every key is folded and a fresh arena
// holds just the heads — or, if they would fill over 1/spillFraction of
// it, the kvbuffer takes them.
func (f *fold) flush() {
	f.sp.bound = f.sp.spec.Job.MaxShuffleBytes > 0
	if f.foldAll(); f.sp.err != nil {
		return
	}
	var size int64
	for _, g := range f.keys {
		size += int64(len(g.vals) * len(g.key))
		for _, v := range g.vals {
			size += int64(len(v))
		}
	}
	if size > f.arena.limit/spillFraction {
		f.drain()
		return
	}
	f.arena = kvBuffer{limit: f.arena.limit}
	clear(f.index)
	n := 0
	for i := range f.keys {
		g := &f.keys[i]
		if len(g.vals) == 0 {
			continue // the combiner emitted nothing under the key
		}
		klen := len(g.key)
		for j, v := range g.vals {
			rec := f.arena.keep(append(append(f.arena.tail(), g.key...), v...))
			if j == 0 {
				g.key = view(rec[:klen])
			}
			g.vals[j] = view(rec[klen:])
		}
		f.index[g.key] = n
		f.keys[n], f.keys[i] = f.keys[i], f.keys[n]
		n++
	}
	f.keys = f.keys[:n]
}

// drain moves every head of a folded table to the kvbuffer, in key
// order of first emission, and empties the table and the arena.
func (f *fold) drain() {
	for _, g := range f.keys {
		for _, v := range g.vals {
			f.sp.bufferCopy(g.key, v, g.part)
		}
	}
	f.keys = f.keys[:0]
	clear(f.index)
	f.arena = kvBuffer{limit: f.arena.limit}
}

// finish folds what is pending, moves every head to the kvbuffer and
// then cleans the combiner up, its emissions going there too.
func (f *fold) finish() {
	if f.foldAll(); f.sp.err != nil {
		return
	}
	f.drain()
	if err := f.comb.Cleanup(&f.ctx); err != nil && f.sp.err == nil {
		f.sp.err = fmt.Errorf("combiner: cleanup: %v", err)
	}
}
