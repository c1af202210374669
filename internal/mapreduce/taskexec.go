// Task execution: the one body of a map or reduce attempt, run by the
// in-process executor against the engine's file system and by an
// out-of-process tasktracker against a RemoteStore. Map output leaves
// as sorted runs, reduce and map-only output as an attempt-unique temp
// file the driver renames into place for the winner, and user counters
// travel back as a snapshot in the TaskResult.

package mapreduce

import (
	"fmt"

	"repro/internal/dfs"
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
func executeTask(store dfs.Store, spec TaskSpec, forceFiles bool) (TaskResult, error) {
	job := spec.Job
	if job == nil {
		return TaskResult{}, fmt.Errorf("mapreduce: task %s has no job", spec.TaskID)
	}
	// A fresh registry per attempt: user counters reach the driver as
	// a snapshot and are merged winner-only, so a failed or losing
	// attempt contributes nothing.
	counters := NewCounters()
	ctx := &TaskContext{
		JobName: job.Name, TaskID: spec.TaskID, Attempt: spec.Attempt, Node: spec.Node,
		conf: job.Conf, cache: job.Cache, counters: counters,
	}
	var res TaskResult
	var err error
	switch spec.Phase {
	case "map":
		res, err = executeMapTask(store, ctx, spec, forceFiles)
	case "reduce":
		res, err = executeReduceTask(store, ctx, spec)
	default:
		err = fmt.Errorf("mapreduce: unknown phase %q", spec.Phase)
	}
	if err != nil {
		return TaskResult{}, fmt.Errorf("%s: %v", spec.TaskID, err)
	}
	res.UserCounters = counters.Snapshot()
	return res, nil
}

// executeMapTask feeds the split through the mapper into a spiller and
// seals the output: sorted runs for the shuffle, or — map-only — the
// emitted records, in emission order, as the task's part file.
func executeMapTask(store dfs.Store, ctx *TaskContext, spec TaskSpec, forceFiles bool) (TaskResult, error) {
	sp := newMapSpiller(store, ctx, spec, forceFiles)
	m := spec.Job.NewMapper()
	if err := m.Setup(ctx); err != nil {
		return TaskResult{}, fmt.Errorf("setup: %v", err)
	}
	var records int64
	err := readSplit(store, spec.Split, func(key, value string) error {
		records++
		return m.Map(ctx, key, value, sp.emit)
	})
	if err != nil {
		return TaskResult{}, err
	}
	if err := m.Cleanup(ctx, sp.emit); err != nil {
		return TaskResult{}, fmt.Errorf("cleanup: %v", err)
	}
	res := TaskResult{Records: records}
	if spec.MapOnly {
		res.OutFile, err = writeTaskOutput(store, spec, sp.parts[0])
	} else {
		res.MapRuns, err = sp.finish()
	}
	res.Stats = sp.stats(records)
	return res, err
}

// executeReduceTask streams the k-way merge of the partition's runs
// through the group iterator into the reducer. Each attempt opens its
// own cursors, so concurrent speculative attempts need no defensive
// copy and nobody re-sorts.
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
	it := newMergeIter(cursors, job.KeyCompare)
	var groups int64
	out, err := runReduce(ctx, job.NewReducer(), it, &groups, job.KeyCompare)
	if err == nil {
		// The merge stream has no error channel; a run-file read
		// failure ends it early and surfaces here.
		err = it.Err()
	}
	if err != nil {
		return TaskResult{}, err
	}
	tmp, err := writeTaskOutput(store, spec, out)
	return TaskResult{
		Records: inRecords,
		OutFile: tmp,
		Stats: TaskStats{
			ReduceInputRecords:  inRecords,
			ReduceOutputRecords: int64(len(out)),
			ReduceInputGroups:   groups,
		},
	}, err
}

// writeTaskOutput stores a reduce or map-only attempt's part file at
// its attempt-unique temp path: concurrent speculative attempts of one
// task never collide, and a retry never collides with the debris of a
// failed earlier attempt.
func writeTaskOutput(store dfs.Store, spec TaskSpec, kvs []KV) (string, error) {
	tmp := fmt.Sprintf("%s/%s-a%04d", tmpDir(spec.Job.Name), spec.TaskID, spec.Attempt)
	return tmp, store.Create(tmp, encodePartFile(kvs, spec.Job.BinaryOutput), spec.Node)
}
