// Task execution: the one body of a map or reduce attempt, run by the
// in-process executor against the engine's file system and by an
// out-of-process tasktracker against a RemoteStore. Map output leaves
// as sorted runs, reduce and map-only output as an attempt-unique temp
// file the driver renames into place for the winner, and user counters
// travel back as a snapshot in the TaskResult.

package mapreduce

import (
	"bytes"
	"errors"
	"fmt"
	"runtime/debug"

	"repro/internal/dfs"
	"repro/internal/recordio"
)

// tmpDir is the DFS directory holding a job's uncommitted task
// outputs, swept when the job finishes.
func tmpDir(jobName string) string { return "_tmp/" + jobName }

// ExecuteTask runs one task attempt against the given store and
// returns its result, every map-output run written to a file. It is
// transport-agnostic — the RPC worker calls it with a RemoteStore after
// materialising spec.Job from the wire; tests may call it directly
// against a local DFS.
func ExecuteTask(store dfs.Store, spec TaskSpec) (TaskResult, error) {
	return executeTask(store, spec, true)
}

// executeTask is ExecuteTask with the choice the in-process executor
// makes differently: with forceFiles unset, a map task's unspilled
// runs stay in memory.
func executeTask(store dfs.Store, spec TaskSpec, forceFiles bool) (res TaskResult, err error) {
	job := spec.Job
	if job == nil {
		return TaskResult{}, fmt.Errorf("mapreduce: task %s has no job", spec.TaskID)
	}
	defer func() { // a panic in user code or a codec fails the attempt, not the process
		if v := recover(); v != nil {
			stack := debug.Stack() // cut to the panicking frame and below
			res, err = TaskResult{}, fmt.Errorf("%s: panic: %v\n%.4096s", spec.TaskID, v, stack[bytes.Index(stack, []byte("\npanic("))+1:])
		}
	}()
	// A fresh registry per attempt: user counters reach the driver as
	// a snapshot and are merged winner-only, so a failed or losing
	// attempt contributes nothing.
	counters := NewCounters()
	ctx := &TaskContext{
		JobName: job.Name, TaskID: spec.TaskID, Attempt: spec.Attempt, Node: spec.Node,
		conf: job.Conf, cache: job.Cache, counters: counters,
	}
	switch spec.Phase {
	case "map":
		res, err = executeMapTask(store, ctx, spec, forceFiles)
	case "reduce":
		res, err = executeReduceTask(store, ctx, spec)
	default:
		err = fmt.Errorf("mapreduce: unknown phase %q", spec.Phase)
	}
	if err != nil {
		return TaskResult{}, fmt.Errorf("%s: %w", spec.TaskID, err)
	}
	res.UserCounters = counters.Snapshot()
	return res, nil
}

// permanentError marks a failure every attempt of its task meets the
// same way — an input record the job's codecs reject — so the scheduler
// fails the task at once rather than retry it. The mark is the
// Permanent method, which lets an executor carry it across a process
// boundary and rebuild it as an error of its own.
type permanentError struct{ err error }

func (e permanentError) Error() string { return e.err.Error() }

func (e permanentError) Unwrap() error { return e.err }

// Permanent marks the error as one no retry can mend.
func (permanentError) Permanent() bool { return true }

// isPermanent reports whether err or an error it wraps is marked permanent.
func isPermanent(err error) bool {
	var p interface{ Permanent() bool }
	return errors.As(err, &p) && p.Permanent()
}

// recordSink is where an attempt's emissions go, as bytes: the map
// side's spiller, the fold a combiner emits into, or a part file. A record
// is added by appending its key's and then its value's encoding to
// tail() and handing the grown slice back with the key's length.
type recordSink interface {
	tail() []byte
	add(buf []byte, klen int)
}

// partWriter is the sink of a reduce or map-only attempt: each record
// is framed into the part file's record-file bytes as it is emitted.
type partWriter struct {
	rec     *recordio.Writer
	scratch []byte // the record being encoded
	records int64
}

func (w *partWriter) tail() []byte { return w.scratch[:0] }

func (w *partWriter) add(buf []byte, klen int) {
	w.scratch = buf
	w.records++
	w.rec.AddBytes(buf[:klen], buf[klen:])
}

// commit stores the part file at its attempt-unique temp path:
// concurrent speculative attempts of one task never collide, and a
// retry never collides with the debris of a failed earlier attempt.
func (w *partWriter) commit(store dfs.Store, spec TaskSpec) (string, error) {
	tmp := fmt.Sprintf("%s/%s-a%04d", tmpDir(spec.Job.Name), spec.TaskID, spec.Attempt)
	return tmp, store.Create(tmp, w.rec.Bytes(), spec.Node)
}

// executeMapTask feeds the split through the mapper and seals what it
// emitted: into a spiller and out as sorted runs for the shuffle, or —
// map-only — straight into the task's part file, in emission order.
func executeMapTask(store dfs.Store, ctx *TaskContext, spec TaskSpec, forceFiles bool) (TaskResult, error) {
	var sp *mapSpiller
	var out *partWriter
	if spec.MapOnly {
		out = &partWriter{rec: recordio.NewWriter()}
		ctx.out = out
	} else {
		sp = newMapSpiller(store, ctx, spec, forceFiles)
		ctx.out = sp
	}
	m := spec.Job.newMapper()
	if err := m.Setup(ctx); err != nil {
		return TaskResult{}, fmt.Errorf("setup: %v", err)
	}
	var records int64
	err := readSplit(store, spec.Split, func(key, value string) error {
		records++
		if err := m.Map(ctx, key, value); err != nil || sp == nil {
			return err
		}
		return sp.err // a record that could not be spilled ends the attempt
	})
	if err != nil {
		return TaskResult{}, err
	}
	if err := m.Cleanup(ctx); err != nil {
		return TaskResult{}, fmt.Errorf("cleanup: %v", err)
	}
	res := TaskResult{Records: records}
	if spec.MapOnly {
		res.Stats = TaskStats{MapInputRecords: records, MapOutputRecords: out.records}
		res.OutFile, err = out.commit(store, spec)
		return res, err
	}
	res.MapRuns, err = sp.finish()
	res.Stats = sp.stats
	res.Stats.MapInputRecords = records
	return res, err
}

// executeReduceTask streams the k-way merge of the partition's runs
// through the group iterator into the reducer, whose emissions go
// straight into the part file. Each attempt opens its own cursors, so
// concurrent speculative attempts need no defensive copy and nobody
// re-sorts.
func executeReduceTask(store dfs.Store, ctx *TaskContext, spec TaskSpec) (TaskResult, error) {
	job := spec.Job
	cursors := make([]cursor, len(spec.Runs))
	var inRecords int64
	for i, r := range spec.Runs {
		c, err := r.open(store)
		if err != nil {
			return TaskResult{}, err
		}
		cursors[i] = c
		inRecords += r.Records
	}
	it, err := newMergeIter(cursors, job.keyCompare)
	if err != nil {
		return TaskResult{}, err
	}
	out := &partWriter{rec: recordio.NewWriter()}
	ctx.out = out
	groups, err := runReduce(ctx, job.newReducer(), it, job.keyCompare)
	if err != nil {
		return TaskResult{}, err
	}
	tmp, err := out.commit(store, spec)
	return TaskResult{
		Records: inRecords,
		OutFile: tmp,
		Stats: TaskStats{
			ReduceInputRecords:  inRecords,
			ReduceOutputRecords: out.records,
			ReduceInputGroups:   groups,
		},
	}, err
}
