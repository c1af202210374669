// Sorted runs and the map-side spiller. A run is the only thing a map
// attempt produces and a reduce attempt consumes: one partition's
// records, sorted (and combined, if the job has a combiner), either
// held in memory — a sorted slice of the attempt's kvbuffer — or
// written to DFS as a recordio file, optionally DEFLATE-compressed. A
// map task appends what it emits to one kvbuffer; when that fills it is
// sorted and, given a combiner, combined where it is, and only what
// then still fills over half the budget is sealed into run files. The
// schedule depends on nothing but the bytes emitted, so it is the same
// on every executor; it does decide how often a combiner runs, and over
// how much of its own output: zero, one or many times, as in Hadoop.

package mapreduce

import (
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
	// combineBufferBytes is when a job with a combiner and no
	// MaxShuffleBytes combines its buffer.
	combineBufferBytes = 1 << 20
	// spillFraction: a combined buffer still over 1/spillFraction of the
	// budget is spilled — the next combine would come too soon to pay.
	spillFraction = 2
)

// mapSpiller owns one map attempt's kvbuffer and turns it into runs.
// It is the recordSink the mapper's emissions go to.
type mapSpiller struct {
	store dfs.Store
	ctx   *TaskContext
	spec  TaskSpec
	// forceFiles seals every run to a file even if the budget never
	// bound: an out-of-process task cannot hand its runs over otherwise.
	forceFiles bool

	buf      kvBuffer
	groups   kvGroups // the scratch of every sort
	limit    int64    // arena size at which the buffer is full; 0: never
	bound    bool     // the budget was reached at least once
	spillSeq int
	err      error // first failure; add becomes a no-op after

	runs  [][]Run   // per partition, spill order
	stats TaskStats // the attempt's counter deltas, committed winner-only
}

func newMapSpiller(store dfs.Store, ctx *TaskContext, spec TaskSpec, forceFiles bool) *mapSpiller {
	job := spec.Job
	sp := &mapSpiller{
		store: store, ctx: ctx, spec: spec, forceFiles: forceFiles,
		limit: job.MaxShuffleBytes, runs: make([][]Run, spec.NumReducers),
	}
	if sp.limit == 0 && job.newCombiner != nil {
		sp.limit = combineBufferBytes
	}
	return sp
}

func (sp *mapSpiller) tail() []byte { return sp.buf.tail() }

// add takes one emitted record into the buffer. TypedEmit has no error
// channel, so a failure is latched: the map loop stops at the record
// that raised it and finish reports it.
func (sp *mapSpiller) add(buf []byte, klen int) {
	if sp.err != nil {
		return
	}
	cur := sp.buf.blocks[len(sp.buf.blocks)-1]
	key := view(buf[len(cur):][:klen])
	part, n := HashPartition, sp.spec.NumReducers
	if sp.spec.Job.partitioner != nil {
		part = sp.spec.Job.partitioner
	}
	if sp.buf.part = part(key, n); sp.buf.part < 0 || sp.buf.part >= n {
		sp.err = fmt.Errorf("illegal partition %d for key %q (%d reducers)", sp.buf.part, key, n)
		return
	}
	sp.buf.add(buf, klen)
	sp.stats.MapOutputRecords++
	if sp.limit > 0 && sp.buf.bytes >= sp.limit {
		sp.err = sp.full()
	}
}

// full makes room: a spill, unless a combiner shrinks the buffer to
// 1/spillFraction of the budget or less. Without a budget the buffer is
// never spilled, and is next full when it has doubled.
func (sp *mapSpiller) full() error {
	budget := sp.spec.Job.MaxShuffleBytes
	sp.bound = budget > 0
	if err := sp.sortCombine(); err != nil {
		return err
	}
	if sp.spec.Job.newCombiner != nil {
		left := sp.buf.bytes
		if budget == 0 {
			sp.limit = max(combineBufferBytes, spillFraction*left)
			return nil
		}
		if left <= budget/spillFraction {
			return nil
		}
	}
	return sp.seal(true)
}

// sortCombine sorts the buffer and, if the job has a combiner, replaces
// it by the combiner's output over each partition's sorted groups,
// sorted again (a combiner's Cleanup may emit out of order).
func (sp *mapSpiller) sortCombine() error {
	job := sp.spec.Job
	sp.buf.sort(job.keyCompare, &sp.groups)
	if job.newCombiner == nil || len(sp.buf.index) == 0 {
		return nil
	}
	// The combiner reads views of the arena, so it writes to a new one
	// (whose first block will hold as much as this one did).
	in := sp.buf
	out := kvBuffer{index: sp.groups.alt[:0], next: int(in.bytes) + 4*in.maxRec}
	ctx := *sp.ctx
	ctx.out = &out
	err := in.eachPart(func(p int, run kvRun) error {
		out.part = p
		_, err := runReduce(&ctx, job.newCombiner(), &run, job.keyCompare)
		return err
	})
	if err != nil {
		return fmt.Errorf("combiner: %v", err)
	}
	sp.stats.CombineInputRecords += int64(len(in.index))
	sp.stats.CombineOutputRecords += int64(len(out.index))
	sp.groups.alt = in.index // read: the second index of out's sort
	out.sort(job.keyCompare, &sp.groups)
	sp.buf = out
	return nil
}

// seal turns each partition's stretch of the sorted (and combined)
// buffer into one run — written to DFS when toFile is set, a slice of
// the buffer otherwise — and starts an empty buffer.
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
	next := kvBuffer{}
	if toFile { // the records were copied out and more may follow
		next.index, next.next = sp.buf.index[:0], int(sp.buf.bytes)+4*sp.buf.maxRec
	}
	sp.buf = next
	return err
}

// finish seals what is left after mapper cleanup and returns the
// attempt's runs per partition. Once the budget has bound the tail goes
// to files too, spilled or not: an attempt's runs are all of one kind,
// and one that outgrew its budget leaves nothing in driver memory.
func (sp *mapSpiller) finish() ([][]Run, error) {
	if sp.err == nil {
		sp.err = sp.sortCombine()
	}
	if sp.err == nil {
		sp.err = sp.seal(sp.bound || sp.forceFiles)
	}
	return sp.runs, sp.err
}
