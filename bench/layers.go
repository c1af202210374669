package main

import (
	"sort"
	"time"

	"repro/internal/dfs"
	"repro/internal/mapreduce"
	"repro/internal/obs"
)

// taskStat is the winning attempt of one task.
type taskStat struct {
	ID        string
	Phase     string // "map" or "reduce"
	Node      string
	Start     time.Duration // offset from job submission
	Dur       time.Duration
	DataLocal bool
}

// jobStat is what the benchmark keeps of one finished job. It is built
// from the mapreduce.Result a pipeline returns, or — for the one job
// whose Result Toolkit.AttackPOI drops — from the job-history record.
type jobStat struct {
	Name                       string
	Start                      time.Time
	Wall, Map, Shuffle, Reduce time.Duration
	MapTasks, ReduceTasks      int
	FailedAttempts             int
	Tasks                      []taskStat
	Counters                   map[string]map[string]int64
}

func jobFromResult(r *mapreduce.Result) jobStat {
	j := jobStat{
		Name: r.Job, Start: r.Start, Wall: r.Wall,
		Map: r.MapWall, Shuffle: r.ShuffleWall, Reduce: r.ReduceWall,
		MapTasks: r.MapTasks, ReduceTasks: r.ReduceTasks,
		Counters: r.Counters.Snapshot(),
	}
	for i, t := range r.Tasks {
		phase := "reduce"
		if i < r.MapTasks {
			phase = "map"
		}
		j.Tasks = append(j.Tasks, taskStat{
			ID: t.ID, Phase: phase, Node: t.Node, Start: t.StartOffset, Dur: t.Duration,
			DataLocal: t.Locality == "data-local",
		})
		j.FailedAttempts += t.FailedAttempts
	}
	return j
}

func jobsFromResults(rs []*mapreduce.Result) []jobStat {
	out := make([]jobStat, 0, len(rs))
	for _, r := range rs {
		if r != nil {
			out = append(out, jobFromResult(r))
		}
	}
	return out
}

// jobFromRecord converts a history record (millisecond resolution).
func jobFromRecord(rec obs.JobRecord) jobStat {
	ms := func(v int64) time.Duration { return time.Duration(v) * time.Millisecond }
	j := jobStat{
		Name: rec.Job, Start: rec.Start(), Wall: ms(rec.WallMs),
		Map: ms(rec.PhaseMs["map"]), Shuffle: ms(rec.PhaseMs["shuffle"]), Reduce: ms(rec.PhaseMs["reduce"]),
		MapTasks: rec.MapTasks, ReduceTasks: rec.ReduceTasks,
		Counters: rec.Counters,
	}
	for _, a := range rec.Attempts {
		switch a.Status {
		case "succeeded":
			j.Tasks = append(j.Tasks, taskStat{
				ID: a.Task, Phase: a.Phase, Node: a.Node, Start: ms(a.StartMs), Dur: ms(a.EndMs - a.StartMs),
				DataLocal: a.Locality == "data-local",
			})
		case "failed":
			j.FailedAttempts++
		}
	}
	return j
}

// layerAgg sums what the traced repetitions of one workload returned.
// For kmeans-tcp a repetition is one iteration of the single call.
type layerAgg struct {
	Reps    int
	WallS   float64 // Σ repetition walls
	Jobs    []jobStat
	IO      dfs.IOStatsSnapshot // Σ fs.IOStats() deltas
	Mallocs uint64
	GCs     uint32
	GCCPUS  float64
	CPUS    float64 // user+sys, worker children included
	Heap    uint64  // highest sampled live heap
	// RPC is the registry delta over the call; nil on in-process
	// workloads, which make no RPC.
	RPC *rpcCounts
}

// add accumulates one timed section: the file system and process
// counters read before and after it, and the heap peak sampled in it.
func (a *layerAgg) add(io0, io1 dfs.IOStatsSnapshot, p0, p1 procSnap, peakHeap uint64) {
	a.IO.BytesRead += io1.BytesRead - io0.BytesRead
	a.IO.BytesWritten += io1.BytesWritten - io0.BytesWritten
	a.IO.ChunksRead += io1.ChunksRead - io0.ChunksRead
	a.Mallocs += p1.mallocs - p0.mallocs
	a.GCs += p1.gcCycles - p0.gcCycles
	a.GCCPUS += p1.gcCPUS - p0.gcCPUS
	a.CPUS += p1.cpuS - p0.cpuS
	if peakHeap > a.Heap {
		a.Heap = peakHeap
	}
}

// deriveLayers turns the aggregate into the per-workload layer metrics.
// A ratio whose denominator is zero on this workload is reported under
// missing with the reason, never as a value.
func deriveLayers(a layerAgg, records int, slots int, corpusBytes int64, corpusPasses int) (values map[string]float64, missing map[string]string) {
	values = map[string]float64{}
	missing = map[string]string{}
	ratio := func(name string, num, den float64, why string) {
		if den == 0 {
			missing[name] = why
			return
		}
		values[name] = num / den
	}
	reps := float64(a.Reps)

	var jobWall, mapWall, shuffleWall, reduceWall time.Duration
	var mapTasks, reduceTasks, failed, dataLocal int
	var busy time.Duration
	var mapDurMs []float64
	counters := map[string]int64{}
	for _, j := range a.Jobs {
		jobWall += j.Wall
		mapWall += j.Map
		shuffleWall += j.Shuffle
		reduceWall += j.Reduce
		mapTasks += j.MapTasks
		reduceTasks += j.ReduceTasks
		failed += j.FailedAttempts
		for _, t := range j.Tasks {
			busy += t.Dur
			if t.Phase == "map" {
				mapDurMs = append(mapDurMs, float64(t.Dur)/float64(time.Millisecond))
				if t.DataLocal {
					dataLocal++
				}
			}
		}
		for g, names := range j.Counters {
			for n, v := range names {
				counters[g+"."+n] += v
			}
		}
	}
	wall := a.WallS
	phases := (mapWall + shuffleWall + reduceWall).Seconds()
	values["gepeto.driver_share"] = 1 - jobWall.Seconds()/wall
	values["mapreduce.map_share"] = mapWall.Seconds() / wall
	values["mapreduce.shuffle_share"] = shuffleWall.Seconds() / wall
	values["mapreduce.reduce_share"] = reduceWall.Seconds() / wall
	values["mapreduce.job_overhead_share"] = (jobWall.Seconds() - phases) / wall

	values["mapreduce.jobs"] = float64(len(a.Jobs)) / reps
	values["mapreduce.map_tasks"] = float64(mapTasks) / reps
	values["mapreduce.reduce_tasks"] = float64(reduceTasks) / reps
	values["mapreduce.task_attempts_failed"] = float64(failed)
	ratio("mapreduce.data_local_share", float64(dataLocal), float64(mapTasks), "no map tasks")
	sort.Float64s(mapDurMs)
	if len(mapDurMs) > 0 {
		values["mapreduce.map_task_p50_ms"] = quantile(mapDurMs, 0.5)
		values["mapreduce.map_task_max_ms"] = mapDurMs[len(mapDurMs)-1]
	} else {
		missing["mapreduce.map_task_p50_ms"] = "no map tasks"
		missing["mapreduce.map_task_max_ms"] = "no map tasks"
	}
	ratio("mapreduce.slot_busy_share", busy.Seconds(), float64(slots)*(mapWall+reduceWall).Seconds(), "no task phases")

	task := func(name string) float64 { return float64(counters[mapreduce.CounterGroupTask+"."+name]) }
	shuffle := func(name string) float64 { return float64(counters[mapreduce.CounterGroupShuffle+"."+name]) }
	ratio("mapreduce.combine_ratio", task(mapreduce.CounterCombineOutput), task(mapreduce.CounterCombineInput), "no job of this workload has a combiner")
	values["mapreduce.shuffle_records"] = task(mapreduce.CounterReduceInputRecords) / reps
	values["mapreduce.shuffle_bytes"] = shuffle(mapreduce.CounterShuffleBytes) / reps
	values["mapreduce.shuffle_runs_merged"] = shuffle(mapreduce.CounterShuffleRunsMerged) / reps
	values["mapreduce.spill_files"] = shuffle(mapreduce.CounterShuffleSpillFiles) / reps
	values["mapreduce.spill_bytes"] = shuffle(mapreduce.CounterShuffleSpillBytes) / reps
	ratio("mapreduce.records_per_spill_file", shuffle(mapreduce.CounterShuffleSpilledRecords), shuffle(mapreduce.CounterShuffleSpillFiles), "no spill files on this workload")

	values["dfs.bytes_read"] = float64(a.IO.BytesRead) / reps
	values["dfs.bytes_written"] = float64(a.IO.BytesWritten) / reps
	values["dfs.chunks_read"] = float64(a.IO.ChunksRead) / reps
	ratio("dfs.read_amplification", float64(a.IO.BytesRead)/reps, float64(corpusBytes)*float64(corpusPasses), "empty corpus")

	recs := float64(records) * reps
	values["runtime.mallocs_per_record"] = float64(a.Mallocs) / recs
	values["runtime.gc_cycles"] = float64(a.GCs) / reps
	ratio("runtime.gc_cpu_share", a.GCCPUS, a.CPUS, "no CPU time measured")
	values["runtime.cpu_s_per_mrecord"] = a.CPUS / (recs / 1e6)
	values["runtime.peak_heap_bytes"] = float64(a.Heap)
	values["runtime.peak_rss_bytes"] = float64(peakRSSBytes())

	if a.RPC == nil {
		for _, name := range rpcLayerMetrics {
			missing[name] = "in-process workload: no RPC is made"
		}
		return values, missing
	}
	r := a.RPC
	series := func(name string, v float64, from ...string) {
		for _, s := range from {
			if r.present[s] {
				values[name] = v
				return
			}
		}
		missing[name] = "no series " + from[0] + " in the jobtracker's metrics snapshot"
	}
	series("cluster.rpc.calls_per_iter", r.Calls/reps, "rpc_server_handled_total")
	series("cluster.rpc.dfs_read_calls_per_iter", r.DFSReadCalls/reps, "rpc_server_handled_total")
	series("cluster.rpc.dfs_read_bytes_per_iter", r.DFSReadBytes/reps, "rpc_server_reply_bytes")
	series("cluster.rpc.dfs_create_calls_per_iter", r.DFSCreateCalls/reps, "rpc_server_handled_total")
	if r.AssignCalls > 0 {
		series("cluster.rpc.assign_bytes_per_task", r.AssignBytes/r.AssignCalls, "rpc_server_request_bytes")
	} else {
		missing["cluster.rpc.assign_bytes_per_task"] = "no worker.assign request in the federated worker metrics"
	}
	series("cluster.rpc.server_busy_share", r.HandlerS/wall, "rpc_server_latency_seconds")
	series("cluster.rpc.call_errors", r.CallErrors, "rpc_client_calls_total")
	series("cluster.rpc.retries", r.Retries, "rpc_store_retries_total", "rpc_complete_retries_total")
	values["cluster.rpc.dup_completions"] = r.DupCompletions
	values["cluster.rpc.lost_workers"] = r.LostWorkers
	return values, missing
}

// rpcLayerMetrics exist on kmeans-tcp only.
var rpcLayerMetrics = []string{
	"cluster.rpc.calls_per_iter", "cluster.rpc.dfs_read_calls_per_iter",
	"cluster.rpc.dfs_read_bytes_per_iter", "cluster.rpc.dfs_create_calls_per_iter",
	"cluster.rpc.assign_bytes_per_task", "cluster.rpc.server_busy_share",
	"cluster.rpc.call_errors", "cluster.rpc.retries",
	"cluster.rpc.dup_completions", "cluster.rpc.lost_workers",
}
