// Package mapreduce implements the MapReduce programming model over
// the simulated cluster and DFS, mirroring the Hadoop architecture the
// paper builds on (§III): a jobtracker (the Engine) schedules map
// tasks close to their data on tasktracker slots, mappers filter their
// input chunk into intermediate key-value pairs, a sort-based shuffle
// groups values by key — the only communication step — and reducers
// aggregate each group into the final output.
//
// Applications declare each job once as a TypedJob: a mapper and
// optionally a reducer and combiner over typed keys and values, with a
// codec for every position (the three classes a Hadoop developer
// defines are Mapper, Reducer and Driver; the Driver role is played by
// the code that builds the job, passes it to Engine.Run and reads the
// output back with ReadOutput). Jobs can be chained into pipelines, as
// the DJ-Cluster preprocessing phase does (§VII-A).
package mapreduce

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// KV is one intermediate or output record. MapReduce represents all
// data as key-value pairs (§III).
type KV struct {
	Key   string
	Value string
}

// mapper and reducer are what the engine runs: a TypedMapper or
// TypedReducer lowered onto encoded records by TypedJob.Build
// (typed.go). A fresh instance serves one task, or one combine pass, and
// what it emits leaves through the TaskContext's record sink.
type mapper interface {
	Setup(ctx *TaskContext) error
	Map(ctx *TaskContext, key, value string) error
	Cleanup(ctx *TaskContext) error
}

type reducer interface {
	Setup(ctx *TaskContext) error
	Reduce(ctx *TaskContext, key string, values []string) error
	Cleanup(ctx *TaskContext) error
}

// Job describes one MapReduce job — the information a Hadoop Driver
// class supplies to the framework.
type Job struct {
	// Name labels the job in results and task IDs.
	Name string
	// Kind names the job's declared kind (see Declare), which stands in
	// for the function fields when the job is shipped to an
	// out-of-process worker. Optional for in-process execution.
	Kind string
	// InputPaths are DFS files or directories to read.
	InputPaths []string
	// OutputPath is the DFS directory for part files. It must not
	// already contain files (Hadoop refuses to overwrite output).
	OutputPath string
	// NumReducers is the number of reduce tasks (default 1).
	NumReducers int
	// Conf carries job configuration strings read by tasks (Hadoop's
	// Configuration), e.g. the sampling window size.
	Conf map[string]string
	// Cache is the distributed cache: read-only named blobs shipped
	// to every task, e.g. the centroid file or the serialized R-tree.
	Cache map[string][]byte
	// MaxAttempts is how many times a failed task is retried on
	// another node before the job fails (default 3).
	MaxAttempts int
	// MaxShuffleBytes bounds the raw key+value bytes a map task
	// buffers. A full buffer is sorted and, by the job's combiner if it
	// has one, combined in memory; what then still fills over half the
	// budget is spilled to DFS as file-backed runs — with a combiner the
	// budget binds on post-combine bytes. 0 (the default) never spills:
	// in-process, each partition then leaves the task as one in-memory
	// run. Ignored by map-only jobs.
	MaxShuffleBytes int64
	// CompressSpill writes run files in the DEFLATE-compressed
	// recordio block format (version 2) instead of plain record
	// files.
	CompressSpill bool
	// Parent is an optional observability span ID grouping this job
	// into a pipeline trace (set by the k-means, DJ-Cluster and R-tree
	// drivers); it is carried on the job's lifecycle events.
	Parent string

	// The functions are set only by TypedJob.Build and, worker-side, by
	// JobWire.Materialize from the kind's declared template.
	newMapper   func() mapper                         // required
	newReducer  func() reducer                        // nil: map-only, mappers write part-m files
	newCombiner func() reducer                        // optional map-side combiner
	partitioner func(key string, numReducers int) int // nil: HashPartition
	// keyCompare orders intermediate keys in the spill sort, shuffle merge
	// and reduce grouping (Hadoop's RawComparator); nil is byte order.
	keyCompare func(a, b string) int
}

// HashPartition is the default partitioner: the 32-bit FNV-1a hash of
// the key (hash/fnv's New32a, inlined: it runs once per map-output
// record) modulo the reducer count.
func HashPartition(key string, numReducers int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return int(h % uint32(numReducers))
}

// TaskContext is passed to every mapper and reducer method, carrying task
// identity, job configuration, the distributed cache, and counters.
type TaskContext struct {
	// JobName is the owning job's name.
	JobName string
	// TaskID identifies the task, e.g. "map-0003" or "reduce-0000".
	TaskID string
	// Attempt is the 0-based attempt number of this execution.
	Attempt int
	// Node is the cluster node executing the task.
	Node string

	conf     map[string]string
	cache    map[string][]byte
	counters *Counters
	out      recordSink // where this attempt's emissions go
}

// Conf returns the job configuration value for key ("" if unset).
func (c *TaskContext) Conf(key string) string { return c.conf[key] }

// ConfDefault returns the configuration value or def if unset.
func (c *TaskContext) ConfDefault(key, def string) string {
	if v, ok := c.conf[key]; ok {
		return v
	}
	return def
}

// CacheFile returns a named blob from the distributed cache.
func (c *TaskContext) CacheFile(name string) ([]byte, bool) {
	b, ok := c.cache[name]
	return b, ok
}

// Counter returns the named job counter, creating it on first use.
func (c *TaskContext) Counter(group, name string) *Counter {
	return c.counters.Get(group, name)
}

// Counter is a monotonically increasing job-level metric, safe for
// concurrent use. It is a bare atomic so per-record increments on the
// map/reduce hot paths never contend on a lock.
type Counter struct {
	v atomic.Int64
}

// Inc adds delta to the counter.
func (c *Counter) Inc(delta int64) {
	c.v.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	return c.v.Load()
}

// Counters is a two-level registry of job counters (group → name),
// mirroring Hadoop's counter groups.
type Counters struct {
	mu     sync.Mutex
	groups map[string]map[string]*Counter
}

// NewCounters returns an empty counter registry.
func NewCounters() *Counters {
	return &Counters{groups: make(map[string]map[string]*Counter)}
}

// Get returns the counter for group/name, creating it if needed.
func (cs *Counters) Get(group, name string) *Counter {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	g, ok := cs.groups[group]
	if !ok {
		g = make(map[string]*Counter)
		cs.groups[group] = g
	}
	c, ok := g[name]
	if !ok {
		c = &Counter{}
		g[name] = c
	}
	return c
}

// Value returns the current value of group/name (0 if never touched).
func (cs *Counters) Value(group, name string) int64 {
	cs.mu.Lock()
	g, ok := cs.groups[group]
	if !ok {
		cs.mu.Unlock()
		return 0
	}
	c, ok := g[name]
	cs.mu.Unlock()
	if !ok {
		return 0
	}
	return c.Value()
}

// Snapshot returns all counters as a nested map, for reporting.
func (cs *Counters) Snapshot() map[string]map[string]int64 {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	out := make(map[string]map[string]int64, len(cs.groups))
	for g, names := range cs.groups {
		m := make(map[string]int64, len(names))
		for n, c := range names {
			m[n] = c.Value()
		}
		out[g] = m
	}
	return out
}

// String renders counters sorted by group and name, one per line.
func (cs *Counters) String() string {
	snap := cs.Snapshot()
	groups := make([]string, 0, len(snap))
	for g := range snap {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	var sb []byte
	for _, g := range groups {
		names := make([]string, 0, len(snap[g]))
		for n := range snap[g] {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			sb = append(sb, fmt.Sprintf("%s.%s=%d\n", g, n, snap[g][n])...)
		}
	}
	return string(sb)
}

// Well-known counter names used by the engine.
const (
	// CounterGroupTask groups record counters.
	CounterGroupTask = "task"
	// CounterGroupScheduler groups locality counters.
	CounterGroupScheduler = "scheduler"
	// CounterGroupShuffle groups shuffle metrics.
	CounterGroupShuffle = "shuffle"
	// CounterGroupEngine groups engine-internal diagnostics.
	CounterGroupEngine = "engine"

	CounterMapInputRecords    = "map_input_records"
	CounterMapOutputRecords   = "map_output_records"
	CounterCombineInput       = "combine_input_records"
	CounterCombineOutput      = "combine_output_records"
	CounterReduceInputGroups  = "reduce_input_groups"
	CounterReduceInputRecords = "reduce_input_records"
	CounterReduceOutput       = "reduce_output_records"

	CounterDataLocal = "data_local_tasks"
	CounterRackLocal = "rack_local_tasks"
	CounterOffRack   = "off_rack_tasks"

	CounterSpeculativeLaunched = "speculative_launched"
	CounterSpeculativeWasted   = "speculative_wasted"

	// CounterHistorySaveErrors counts job-history stores that failed.
	// History is diagnostics — a full store must not fail the job — but
	// the failure has to stay visible somewhere.
	CounterHistorySaveErrors = "history_save_errors"

	CounterShuffleBytes = "shuffle_bytes"
	// CounterShuffleRunsMerged counts the pre-sorted map-output runs
	// fed into the shuffle's per-partition k-way merges.
	CounterShuffleRunsMerged = "shuffle_runs_merged"
	// CounterShuffleSpilledRecords counts the records sorted into runs
	// by map tasks at commit time (Hadoop's "Spilled Records").
	CounterShuffleSpilledRecords = "shuffle_spilled_records"
	// CounterShuffleSpillFiles counts the external run files written to
	// DFS by map tasks whose buffer tripped Job.MaxShuffleBytes.
	CounterShuffleSpillFiles = "shuffle_spill_files"
	// CounterShuffleSpillBytes counts the on-DFS bytes of those run
	// files (post-compression when Job.CompressSpill is set).
	CounterShuffleSpillBytes = "shuffle_spill_bytes"
	// CounterShuffleSpillCleanupErrors counts spill-directory deletions
	// that failed at job end; cleanup is best-effort but must be
	// visible.
	CounterShuffleSpillCleanupErrors = "shuffle_spill_cleanup_errors"

	// CounterGroupDFS groups the file-system I/O attributed to the job
	// (the delta of the DFS's global I/O stats across the run; with
	// concurrent jobs on one file system the attribution is shared).
	CounterGroupDFS        = "dfs"
	CounterDFSBytesRead    = "dfs_bytes_read"
	CounterDFSBytesWritten = "dfs_bytes_written"
	CounterDFSChunksRead   = "chunks_read"
)

// TaskReport describes one completed task for diagnostics and tests.
type TaskReport struct {
	// ID is the task identifier ("map-0007", "reduce-0000").
	ID string
	// Node is where the successful attempt ran.
	Node string
	// Attempts is the number of attempts used (1 = first try).
	Attempts int
	// Locality is "data-local", "rack-local" or "off-rack" for map
	// tasks; "" for reduce tasks.
	Locality string
	// Records is the number of input records processed.
	Records int64
	// Duration is the wall time of the successful attempt.
	Duration time.Duration
	// StartOffset is when the winning attempt started executing,
	// relative to job submission (timeline positioning).
	StartOffset time.Duration
	// FailedAttempts counts the attempts that failed before (or, with
	// speculation, alongside) the winning one.
	FailedAttempts int
}

// Result summarises one job execution.
type Result struct {
	// Job is the job name.
	Job string
	// OutputFiles lists the DFS part files written.
	OutputFiles []string
	// Counters holds all job counters.
	Counters *Counters
	// MapTasks and ReduceTasks are the task counts.
	MapTasks, ReduceTasks int
	// MapWall, ShuffleWall and ReduceWall are per-phase wall times.
	MapWall, ShuffleWall, ReduceWall time.Duration
	// Wall is the total job wall time.
	Wall time.Duration
	// Start is the job submission time.
	Start time.Time
	// Tasks are per-task reports, map tasks first.
	Tasks []TaskReport
	// Attempts are all task attempts — winning, failed and
	// speculatively killed — for history records and timelines.
	Attempts []obs.AttemptRecord
}

// Report is the JSON-friendly form of a Result, mirroring Hadoop's job
// history records.
type Report struct {
	Job         string                      `json:"job"`
	MapTasks    int                         `json:"map_tasks"`
	ReduceTasks int                         `json:"reduce_tasks"`
	StartUnixMs int64                       `json:"start_unix_ms"`
	WallMillis  int64                       `json:"wall_ms"`
	PhaseMillis map[string]int64            `json:"phase_ms"`
	Counters    map[string]map[string]int64 `json:"counters"`
	OutputFiles []string                    `json:"output_files"`
	Tasks       []TaskReport                `json:"tasks,omitempty"`
	Attempts    []obs.AttemptRecord         `json:"attempts,omitempty"`
}

// Report converts the result for serialization (encoding/json).
// Reduce tasks have no locality preference, so their Locality renders
// as "n/a" rather than an ambiguous empty string.
func (r *Result) Report() Report {
	tasks := append([]TaskReport(nil), r.Tasks...)
	for i := range tasks {
		if tasks[i].Locality == "" {
			tasks[i].Locality = "n/a"
		}
	}
	return Report{
		Job:         r.Job,
		MapTasks:    r.MapTasks,
		ReduceTasks: r.ReduceTasks,
		StartUnixMs: r.Start.UnixMilli(),
		WallMillis:  r.Wall.Milliseconds(),
		PhaseMillis: map[string]int64{
			"map":     r.MapWall.Milliseconds(),
			"shuffle": r.ShuffleWall.Milliseconds(),
			"reduce":  r.ReduceWall.Milliseconds(),
		},
		Counters:    r.Counters.Snapshot(),
		OutputFiles: r.OutputFiles,
		Tasks:       tasks,
		Attempts:    r.Attempts,
	}
}

// HistoryRecord converts the result into the form the job-history
// store persists (obs.JobRecord carries no sequence number yet; the
// store assigns one on Save).
func (r *Result) HistoryRecord() obs.JobRecord {
	nodeSet := make(map[string]bool)
	for _, a := range r.Attempts {
		nodeSet[a.Node] = true
	}
	nodes := make([]string, 0, len(nodeSet))
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	return obs.JobRecord{
		Job:         r.Job,
		StartUnixMs: r.Start.UnixMilli(),
		WallMs:      r.Wall.Milliseconds(),
		MapTasks:    r.MapTasks,
		ReduceTasks: r.ReduceTasks,
		PhaseMs: map[string]int64{
			"map":     r.MapWall.Milliseconds(),
			"shuffle": r.ShuffleWall.Milliseconds(),
			"reduce":  r.ReduceWall.Milliseconds(),
		},
		Counters: r.Counters.Snapshot(),
		Attempts: append([]obs.AttemptRecord(nil), r.Attempts...),
		Nodes:    nodes,
	}
}
