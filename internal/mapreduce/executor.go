// The executor layer: the boundary between the scheduler (which
// decides WHERE and WHEN an attempt runs) and task execution (which
// decides HOW). The scheduler only ever sees TaskSpec in and
// TaskResult out, so the same locality / speculation / retry machinery
// drives both the in-process backend (tasks as goroutines against the
// engine's own file system) and the RPC backend (tasks shipped to
// worker processes, results gob-encoded over the wire). Both run the
// same task code (taskexec.go).

package mapreduce

import "context"

// TaskSpec is everything an executor needs to run one task attempt.
// Exactly one of Split (map) or Partition+Runs (reduce) is meaningful,
// selected by Phase.
type TaskSpec struct {
	// Job is the full job description. In-process executors use its
	// function fields directly; remote executors ship it as a JobWire
	// and re-materialise the functions from the kind's template.
	Job *Job
	// Run identifies the Engine.Run call the attempt belongs to, unique
	// within the driver process. Job names repeat (every k-means call
	// submits "kmeans-iter-000"), so a remote executor that must tell a
	// duplicate delivery from a new submission keys on this, not on the
	// name.
	Run uint64
	// Phase is "map" or "reduce".
	Phase string
	// TaskID is the task identifier ("map-0007", "reduce-0000").
	TaskID string
	// Index is the task's position in its phase (split index for maps,
	// partition number for reduces).
	Index int
	// Attempt is the attempt number, unique per task.
	Attempt int
	// Node is the tasktracker the scheduler placed this attempt on.
	Node string
	// MapOnly marks jobs without a reducer.
	MapOnly bool
	// NumReducers is the resolved reducer count (>= 1).
	NumReducers int
	// Split is the map task's input range.
	Split InputSplit
	// Partition is the reduce task's partition number.
	Partition int
	// Runs are the sorted runs feeding a reduce task, in (map task,
	// spill sequence) order — the order the merge's tie-break relies
	// on for stability.
	Runs []Run
}

// TaskStats carries the winning attempt's counter deltas back to the
// driver, which commits them winner-only (speculative losers are
// discarded, stats and all).
type TaskStats struct {
	MapInputRecords      int64
	MapOutputRecords     int64
	CombineInputRecords  int64
	CombineOutputRecords int64
	SpilledRecords       int64
	SpillFiles           int64
	SpillBytes           int64
	ReduceInputRecords   int64
	ReduceOutputRecords  int64
	ReduceInputGroups    int64
}

// TaskResult is one attempt's output.
type TaskResult struct {
	// Records is the number of input records processed.
	Records int64
	// MapRuns lists a map task's sorted runs per reduce partition, in
	// spill order.
	MapRuns [][]Run
	// OutFile is the attempt-unique temp file holding a reduce or
	// map-only task's part file. The driver renames the winner's into
	// place; losers' temps are swept with the job's temp directory.
	OutFile string
	// Stats are the attempt's counter deltas, committed winner-only.
	Stats TaskStats
	// UserCounters snapshots the counters ticked by user task code,
	// merged into the job's counters winner-only.
	UserCounters map[string]map[string]int64
}

// Executor runs task attempts for the scheduler.
type Executor interface {
	// RunTask executes one attempt to completion. The context is
	// cancelled when the phase ends, releasing executors that block on
	// remote completion (losing speculative attempts are abandoned).
	RunTask(ctx context.Context, spec TaskSpec) (TaskResult, error)
	// External reports whether attempts run outside the driver
	// process: the job must then wire (a declared kind), and an
	// abandoned attempt may outlive its phase.
	External() bool
}

// localExecutor is the in-process backend: a worker whose store is the
// engine's own file system and whose transport is a function call —
// plus the test hooks (node delay, failure injection) only it applies.
type localExecutor struct{ e *Engine }

func (x localExecutor) External() bool { return false }

func (x localExecutor) RunTask(ctx context.Context, spec TaskSpec) (TaskResult, error) {
	e := x.e
	if e.opts.NodeDelay != nil {
		delay, stop := context.WithTimeout(ctx, e.opts.NodeDelay(spec.Node))
		<-delay.Done()
		stop()
	}
	if err := ctx.Err(); err != nil {
		// The phase was decided while this attempt waited on its node
		// (a speculative loser): nothing it produces can be committed.
		return TaskResult{}, err
	}
	if e.opts.FailureHook != nil {
		if ferr := e.opts.FailureHook(spec.TaskID, spec.Attempt, spec.Node); ferr != nil {
			return TaskResult{}, ferr
		}
	}
	return executeTask(e.fs, spec, false)
}

// mergeUserCounters folds an attempt's counter snapshot into the job's
// registry (winner-only: the scheduler calls commit exactly once
// per task).
func mergeUserCounters(cs *Counters, snap map[string]map[string]int64) {
	for group, names := range snap {
		for name, v := range names {
			if v != 0 {
				cs.Get(group, name).Inc(v)
			}
		}
	}
}
