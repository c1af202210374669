package mapreduce

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/obs"
	"repro/internal/recordio"
)

// Options configures the engine.
type Options struct {
	// FailureHook, if set, is consulted before each task attempt; a
	// non-nil return fails the attempt, exercising the jobtracker's
	// retry-on-another-node path. Used by tests for fault injection.
	// In-process executor only.
	FailureHook func(taskID string, attempt int, node string) error
	// SpeculativeSlack enables speculative execution: when slots are
	// idle and a task attempt has been running longer than this, a
	// backup attempt is launched on another node and the first to
	// finish wins (Hadoop's straggler mitigation). Zero disables it.
	SpeculativeSlack time.Duration
	// NodeDelay, if set, delays the start of every attempt on the given
	// node, modelling heterogeneous or straggling nodes (used by tests
	// to exercise speculation); the delay ends early when the attempt's
	// phase is decided. In-process executor only.
	NodeDelay func(node string) time.Duration
	// Executor, if set, runs task attempts — the RPC backend plugs its
	// remote executor in here. Nil selects the in-process executor,
	// which runs tasks as goroutines on the scheduler's slot workers.
	Executor Executor
	// Obs receives structured lifecycle events (job, phase and task-
	// attempt spans). A nil bus — or a bus with no sinks — costs one
	// nil/empty check per emission site, so jobs run at full speed
	// when nothing is observing.
	Obs *obs.Bus
	// History, if set, keeps every successful job's record (counters
	// plus per-attempt timings) in memory.
	History *obs.History
}

// Engine is the jobtracker's driver side: it turns DFS chunks into map
// tasks, schedules them on tasktracker slots with locality preference
// (scheduler.go), hands each attempt to an Executor (executor.go),
// plans the shuffle, and commits outputs.
type Engine struct {
	cluster *cluster.Cluster
	fs      *dfs.FileSystem
	opts    Options
}

// NewEngine creates an engine over the cluster and file system.
func NewEngine(c *cluster.Cluster, fs *dfs.FileSystem, opts Options) *Engine {
	return &Engine{cluster: c, fs: fs, opts: opts}
}

// FS returns the engine's file system (for writing inputs and reading
// job outputs).
func (e *Engine) FS() *dfs.FileSystem { return e.fs }

// Cluster returns the engine's cluster.
func (e *Engine) Cluster() *cluster.Cluster { return e.cluster }

// Obs returns the engine's event bus (possibly nil), so algorithm
// drivers can emit pipeline spans onto the same trace.
func (e *Engine) Obs() *obs.Bus { return e.opts.Obs }

// runSeq numbers Engine.Run calls process-wide; see TaskSpec.Run.
var runSeq atomic.Uint64

// Run executes one job to completion and returns its result.
func (e *Engine) Run(job *Job) (*Result, error) {
	start := time.Now()
	run := runSeq.Add(1)
	if err := validate(job); err != nil {
		return nil, err
	}
	numReducers := job.NumReducers
	if numReducers <= 0 {
		numReducers = 1
	}
	maxAttempts := job.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 3
	}
	if existing := e.fs.List(job.OutputPath); len(existing) > 0 {
		return nil, fmt.Errorf("mapreduce: output path %q already exists", job.OutputPath)
	}
	mapOnly := job.newReducer == nil

	// Select the executor. An external one additionally requires the
	// job to wire — a missing kind declaration should fail the job at
	// submission, not every task attempt on the workers.
	exec := e.opts.Executor
	if exec == nil {
		exec = localExecutor{e}
	} else if exec.External() {
		if _, err := job.Wire(); err != nil {
			return nil, err
		}
	}

	splits, err := splitsFor(e.fs, job.InputPaths)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: job %s: %v", job.Name, err)
	}

	res := &Result{
		Job:      job.Name,
		Counters: NewCounters(),
		MapTasks: len(splits),
		Start:    start,
	}
	bus := e.opts.Obs
	io0 := e.fs.IOStats()
	bus.Emit(obs.Event{
		Type: obs.JobSubmitted, Job: job.Name, Parent: job.Parent, Time: start,
		Detail: fmt.Sprintf("maps=%d reducers=%d", len(splits), numReducers),
	})
	// cleanup removes the job's run files and uncommitted task outputs
	// at job end. It is best-effort — a stuck delete must not change
	// the job's outcome — but failures are counted, never dropped.
	// Background speculative reduce losers may still be streaming a
	// run file here; their read error is discarded with the rest of
	// the losing attempt.
	cleanup := func() {
		for _, dir := range []string{tmpDir(job.Name), spillDir(job)} {
			if derr := e.fs.DeleteDir(dir); derr != nil {
				res.Counters.Get(CounterGroupShuffle, CounterShuffleSpillCleanupErrors).Inc(1)
			}
		}
	}
	// fail reports the job's failure on the bus before returning it.
	// Any part files already committed are removed first — the output-
	// exists check at submission guarantees everything under OutputPath
	// was written by this job, and leaving partial output behind would
	// make a rerun of the same job fail on that very check.
	fail := func(err error) (*Result, error) {
		cleanup()
		if derr := e.fs.DeleteDir(job.OutputPath); derr != nil {
			// A rerun would now trip the output-exists check; make the
			// stuck cleanup part of the reported failure.
			err = fmt.Errorf("%v (cleaning partial output: %v)", err, derr)
		}
		bus.Emit(obs.Event{
			Type: obs.JobFinished, Job: job.Name, Parent: job.Parent,
			Dur: time.Since(start), Err: err.Error(),
		})
		return nil, err
	}
	// runPhase schedules one phase's tasks inside a phase span, closed
	// on failure too, and returns the phase wall. parts is the shuffle
	// summary the reduce phase opens with. Only the winning attempt's
	// result is committed, counters, stats and output alike.
	runPhase := func(name string, parts []obs.PartStat, specs []TaskSpec, reports []TaskReport, commit func(i int, tr TaskResult)) (time.Duration, error) {
		end := bus.Begin(obs.Event{Job: job.Name, Phase: name, Parts: parts})
		p := &phase{
			e: e, job: job, name: name, specs: specs, maxAttempts: maxAttempts, exec: exec, res: res,
			commit: func(i int, tr TaskResult, rep TaskReport) {
				mergeUserCounters(res.Counters, tr.UserCounters)
				rep.Records = tr.Records
				reports[i] = rep
				commit(i, tr)
			},
		}
		err := p.run()
		if err != nil {
			err = fmt.Errorf("mapreduce: job %s: %v", job.Name, err)
		}
		return end(&err), err
	}
	// commitOutputs renames each task's winning temp file into place as
	// a part file, then finalises the successful result: the job's
	// share of DFS I/O, the finish event, and the history record.
	commitOutputs := func(kind string, temps []string) (*Result, error) {
		for i, tmp := range temps {
			name := fmt.Sprintf("%s/part-%s-%05d", job.OutputPath, kind, i)
			if err := e.fs.Rename(tmp, name); err != nil {
				return fail(err)
			}
			res.OutputFiles = append(res.OutputFiles, name)
		}
		cleanup()
		res.Wall = time.Since(start)
		io1 := e.fs.IOStats()
		res.Counters.Get(CounterGroupDFS, CounterDFSBytesRead).Inc(io1.BytesRead - io0.BytesRead)
		res.Counters.Get(CounterGroupDFS, CounterDFSBytesWritten).Inc(io1.BytesWritten - io0.BytesWritten)
		res.Counters.Get(CounterGroupDFS, CounterDFSChunksRead).Inc(io1.ChunksRead - io0.ChunksRead)
		bus.Emit(obs.Event{
			Type: obs.JobFinished, Job: job.Name, Parent: job.Parent, Dur: res.Wall,
		})
		if e.opts.History != nil {
			e.opts.History.Save(res.HistoryRecord())
		}
		return res, nil
	}

	// ---- Map phase ----
	mapResults := make([]TaskResult, len(splits))
	res.Tasks = make([]TaskReport, len(splits))
	mapSpecs := make([]TaskSpec, len(splits))
	for i, sp := range splits {
		mapSpecs[i] = TaskSpec{
			Job: job, Run: run, Phase: "map", TaskID: fmt.Sprintf("map-%04d", i), Index: i,
			MapOnly: mapOnly, NumReducers: numReducers, Split: sp,
		}
	}
	res.MapWall, err = runPhase("map", nil, mapSpecs, res.Tasks, func(i int, tr TaskResult) {
		st := tr.Stats
		res.Counters.Get(CounterGroupTask, CounterMapInputRecords).Inc(st.MapInputRecords)
		res.Counters.Get(CounterGroupTask, CounterMapOutputRecords).Inc(st.MapOutputRecords)
		if job.newCombiner != nil && !mapOnly {
			res.Counters.Get(CounterGroupTask, CounterCombineInput).Inc(st.CombineInputRecords)
			res.Counters.Get(CounterGroupTask, CounterCombineOutput).Inc(st.CombineOutputRecords)
		}
		if !mapOnly {
			res.Counters.Get(CounterGroupShuffle, CounterShuffleSpilledRecords).Inc(st.SpilledRecords)
			if st.SpillFiles > 0 {
				res.Counters.Get(CounterGroupShuffle, CounterShuffleSpillFiles).Inc(st.SpillFiles)
				res.Counters.Get(CounterGroupShuffle, CounterShuffleSpillBytes).Inc(st.SpillBytes)
			}
		}
		mapResults[i] = tr
	})
	if err != nil {
		return fail(err)
	}
	if mapOnly {
		// Each map task's output is its part-m file.
		temps := make([]string, len(mapResults))
		for i, tr := range mapResults {
			temps[i] = tr.OutFile
		}
		return commitOutputs("m", temps)
	}

	// ---- Shuffle: the only communication step (§III). ----
	// Every map task left pre-sorted runs per reduce partition, so the
	// shuffle is pure planning: hand each reduce task its partition's
	// runs in (map task, spill sequence) order — the order the merge's
	// tie-break relies on for stability. The k-way merge itself streams
	// inside the reduce attempts.
	shuffleStart := time.Now()
	res.ReduceTasks = numReducers
	reduceSpecs := make([]TaskSpec, numReducers) // no locality: reducers read from all mappers
	for r := range reduceSpecs {
		reduceSpecs[r] = TaskSpec{
			Job: job, Run: run, Phase: "reduce", TaskID: fmt.Sprintf("reduce-%04d", r), Index: r,
			NumReducers: numReducers, Partition: r,
		}
	}
	for _, tr := range mapResults {
		for p, runs := range tr.MapRuns {
			reduceSpecs[p].Runs = append(reduceSpecs[p].Runs, runs...)
		}
	}
	parts := make([]obs.PartStat, numReducers)
	var totalRuns, shuffleBytes int64
	for p, spec := range reduceSpecs {
		parts[p] = obs.PartStat{Part: p, Runs: int64(len(spec.Runs))}
		for _, run := range spec.Runs {
			parts[p].Records += run.Records
			parts[p].Bytes += run.Bytes
		}
		totalRuns += parts[p].Runs
		shuffleBytes += parts[p].Bytes
	}
	res.Counters.Get(CounterGroupShuffle, CounterShuffleBytes).Inc(shuffleBytes)
	res.Counters.Get(CounterGroupShuffle, CounterShuffleRunsMerged).Inc(totalRuns)
	res.ShuffleWall = time.Since(shuffleStart)

	// ---- Reduce phase ----
	temps := make([]string, numReducers)
	reduceReports := make([]TaskReport, numReducers)
	res.ReduceWall, err = runPhase("reduce", parts, reduceSpecs, reduceReports, func(r int, tr TaskResult) {
		st := tr.Stats
		res.Counters.Get(CounterGroupTask, CounterReduceInputRecords).Inc(st.ReduceInputRecords)
		res.Counters.Get(CounterGroupTask, CounterReduceOutput).Inc(st.ReduceOutputRecords)
		res.Counters.Get(CounterGroupTask, CounterReduceInputGroups).Inc(st.ReduceInputGroups)
		temps[r] = tr.OutFile
	})
	if err != nil {
		return fail(err)
	}
	res.Tasks = append(res.Tasks, reduceReports...)
	return commitOutputs("r", temps)
}

// runReduce feeds each distinct-key group of a sorted record stream to
// the reducer (used for both real reducers and combiners), whose
// emissions go to ctx.out. The input iterator must yield records in
// non-decreasing key order; grouping is streaming, so the whole input is
// never copied or re-sorted. It returns the number of distinct keys.
// Counters are the caller's responsibility (only winning attempts
// commit them).
func runReduce(ctx *TaskContext, red reducer, it cursor, cmp func(a, b string) int) (groups int64, err error) {
	if err := red.Setup(ctx); err != nil {
		return 0, fmt.Errorf("setup: %v", err)
	}
	g := newGroupIter(it, cmp)
	for {
		key, values, ok, err := g.next()
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		if err := red.Reduce(ctx, key, values); err != nil {
			return 0, err
		}
		groups++
	}
	if err := red.Cleanup(ctx); err != nil {
		return 0, fmt.Errorf("cleanup: %v", err)
	}
	return groups, nil
}

// ReadOutput streams the records of a completed job's output
// directory into fn, decoded by the given codecs, in part-file order.
// Every part file is a record file, so anything else under the
// directory is an error, as is a truncated file or a record a codec
// rejects; each error names the file. fn may keep what it is handed:
// records are decoded from a file's own freshly read bytes, which
// nothing overwrites. The read stops at the first error, fn's included,
// and the records fn has already seen belong to a failed read.
func ReadOutput[K, V any](e *Engine, outputPath string, key Codec[K], val Codec[V], fn func(K, V) error) error {
	files := e.fs.List(outputPath)
	if len(files) == 0 {
		return fmt.Errorf("mapreduce: no output files under %q", outputPath)
	}
	for _, f := range files {
		if err := readPart(e.fs, f, key, val, fn); err != nil {
			return fmt.Errorf("mapreduce: output %s: %v", f, err)
		}
	}
	return nil
}

func readPart[K, V any](fs *dfs.FileSystem, path string, key Codec[K], val Codec[V], fn func(K, V) error) error {
	data, err := fs.ReadAll(path)
	if err != nil {
		return err
	}
	return recordio.ScanAllBytes(data, func(kb, vb []byte) error {
		k, err := key.Decode(view(kb))
		if err != nil {
			return fmt.Errorf("decode key: %v", err)
		}
		v, err := val.Decode(view(vb))
		if err != nil {
			return fmt.Errorf("decode value of key %q: %v", kb, err)
		}
		return fn(k, v)
	})
}

// RunPipeline runs jobs in sequence, failing fast; the caller wires
// each job's OutputPath into the next job's InputPaths (as DJ-Cluster's
// preprocessing does: "the output of the first job constitutes the
// input of the second one").
func (e *Engine) RunPipeline(jobs ...*Job) ([]*Result, error) {
	results := make([]*Result, 0, len(jobs))
	for _, j := range jobs {
		r, err := e.Run(j)
		if err != nil {
			return results, err
		}
		results = append(results, r)
	}
	return results, nil
}

func validate(job *Job) error {
	if job.Name == "" {
		return fmt.Errorf("mapreduce: job needs a name")
	}
	if job.newMapper == nil {
		return fmt.Errorf("mapreduce: job %s: a mapper is required", job.Name)
	}
	if len(job.InputPaths) == 0 {
		return fmt.Errorf("mapreduce: job %s: no input paths", job.Name)
	}
	if job.OutputPath == "" {
		return fmt.Errorf("mapreduce: job %s: no output path", job.Name)
	}
	if job.newCombiner != nil && job.newReducer == nil {
		return fmt.Errorf("mapreduce: job %s: combiner without reducer", job.Name)
	}
	return nil
}
