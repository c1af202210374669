// Sorted runs and the map-side spiller. A run is the only thing a map
// attempt produces and a reduce attempt consumes: one partition's
// records, sorted (and combined, if the job has a combiner), either
// held in memory or written to DFS as a recordio file — optionally
// DEFLATE-compressed. A map task buffers emitted records per reduce
// partition and tracks the raw key+value bytes; whenever
// Job.MaxShuffleBytes trips, every non-empty partition buffer is
// sealed into a file-backed run and released. At the end of the task
// the remaining buffers are sealed too — to files if the task already
// spilled or runs on an out-of-process worker, in memory otherwise.

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
// every run to a file, so only the in-process executor ever holds one
// in memory.
type Run struct {
	RunDesc
	mem []KV
}

// open returns a fresh cursor over the run. Each reduce attempt opens
// its own (with its own fetch window, for a file), so concurrent
// speculative attempts never share read state.
func (r Run) open(store dfs.Store) (cursor, error) {
	if r.Path == "" {
		return sliceCursor(r.mem), nil
	}
	return openRunFile(store, r.Path)
}

// openRunFile opens one run file as a cursor streaming through ranged
// DFS reads, holding one fetch window rather than the file.
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
	return func() (KV, bool, error) {
		k, v, ok, err := r.Next()
		if err != nil {
			return KV{}, false, fmt.Errorf("spill run %s: %v", path, err)
		}
		return KV{Key: k, Value: v}, ok, nil
	}, nil
}

// mapSpiller owns one map attempt's partitioned output buffer and
// turns it into runs.
type mapSpiller struct {
	store     dfs.Store
	ctx       *TaskContext
	spec      TaskSpec
	partition func(key string, numReducers int) int
	budget    int64
	// forceFiles makes finish seal every run to a file even when
	// nothing tripped the budget — out-of-process map tasks have no
	// other way to hand their output to the reducers.
	forceFiles bool

	parts    [][]KV
	bufBytes int64
	spillSeq int
	err      error // first spill failure; emit becomes a no-op after

	runs [][]Run // per partition, spill order

	added      int64 // records emitted by the mapper
	sorted     int64 // records sorted into runs (Hadoop's "Spilled Records")
	combineIn  int64
	combineOut int64
	files      int64 // run files written
	fileBytes  int64 // on-DFS bytes of those files
}

func newMapSpiller(store dfs.Store, ctx *TaskContext, spec TaskSpec, forceFiles bool) *mapSpiller {
	sp := &mapSpiller{
		store: store, ctx: ctx, spec: spec, partition: spec.Job.Partitioner,
		budget: spec.Job.MaxShuffleBytes, forceFiles: forceFiles,
	}
	if sp.partition == nil {
		sp.partition = HashPartition
	}
	nParts := spec.NumReducers
	if spec.MapOnly {
		// Map-only output skips the shuffle: one unsorted buffer that
		// goes straight to the task's part file.
		nParts, sp.budget = 1, 0
	}
	sp.parts = make([][]KV, nParts)
	sp.runs = make([][]Run, nParts)
	return sp
}

// stats packages the attempt's counter deltas for the TaskResult; the
// driver commits them only for the winning attempt.
func (sp *mapSpiller) stats(inputRecords int64) TaskStats {
	return TaskStats{
		MapInputRecords:      inputRecords,
		MapOutputRecords:     sp.added,
		CombineInputRecords:  sp.combineIn,
		CombineOutputRecords: sp.combineOut,
		SpilledRecords:       sp.sorted,
		SpillFiles:           sp.files,
		SpillBytes:           sp.fileBytes,
	}
}

// emit is the Emit the mapper sees. The Emit signature has no error
// channel, so a spill failure is latched and re-raised by finish.
func (sp *mapSpiller) emit(k, v string) {
	if sp.err != nil {
		return
	}
	p := 0
	if !sp.spec.MapOnly {
		p = sp.partition(k, sp.spec.NumReducers)
	}
	sp.parts[p] = append(sp.parts[p], KV{k, v})
	sp.added++
	if sp.budget > 0 {
		sp.bufBytes += int64(len(k) + len(v))
		if sp.bufBytes >= sp.budget {
			sp.err = sp.seal(true)
			sp.spillSeq++
			sp.bufBytes = 0
		}
	}
}

// sortCombine prepares one partition buffer as a run: stable sort,
// optional combine over the sorted groups, and a re-sort of the
// combined output (a combiner Cleanup may emit out of order).
func (sp *mapSpiller) sortCombine(run []KV) ([]KV, error) {
	job := sp.spec.Job
	sortRun(run, job.KeyCompare)
	if job.NewCombiner == nil {
		return run, nil
	}
	combined, err := runReduce(sp.ctx, job.NewCombiner(), &sliceIter{kvs: run}, nil, job.KeyCompare)
	if err != nil {
		return nil, fmt.Errorf("combiner: %v", err)
	}
	sp.combineIn += int64(len(run))
	sp.combineOut += int64(len(combined))
	sortRun(combined, job.KeyCompare)
	return combined, nil
}

// seal turns every non-empty partition buffer into one sorted (and
// combined) run — written to DFS when toFile is set, kept in memory
// otherwise — and releases the buffer.
func (sp *mapSpiller) seal(toFile bool) error {
	job := sp.spec.Job
	for p, buf := range sp.parts {
		if len(buf) == 0 {
			continue
		}
		kvs, err := sp.sortCombine(buf)
		if err != nil {
			return err
		}
		sp.parts[p] = nil
		if len(kvs) == 0 {
			continue
		}
		run := Run{RunDesc: RunDesc{Records: int64(len(kvs))}, mem: kvs}
		for _, kv := range kvs {
			run.Bytes += int64(len(kv.Key) + len(kv.Value))
		}
		if toFile {
			var w interface {
				Add(key, value string)
				Bytes() []byte
			} = recordio.NewWriter()
			if job.CompressSpill {
				w = recordio.NewCompressedWriter(0)
			}
			for _, kv := range kvs {
				w.Add(kv.Key, kv.Value)
			}
			data := w.Bytes()
			run.Path = fmt.Sprintf("%s/%s-a%04d-spill-%04d-p%05d",
				spillDir(job), sp.spec.TaskID, sp.spec.Attempt, sp.spillSeq, p)
			if err := sp.store.Create(run.Path, data, sp.spec.Node); err != nil {
				return fmt.Errorf("spill %s: %v", run.Path, err)
			}
			run.mem = nil
			sp.files++
			sp.fileBytes += int64(len(data))
		}
		sp.runs[p] = append(sp.runs[p], run)
		sp.sorted += run.Records
	}
	return nil
}

// finish seals the attempt's remaining buffers after mapper cleanup
// and returns its runs per partition. Once anything spilled the tail
// goes to files too, so an attempt's runs are all of one kind.
func (sp *mapSpiller) finish() ([][]Run, error) {
	if sp.err == nil {
		sp.err = sp.seal(sp.spillSeq > 0 || sp.forceFiles)
	}
	return sp.runs, sp.err
}
