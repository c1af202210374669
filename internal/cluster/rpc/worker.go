package rpc

import (
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/obs"
)

// Task assignment args/replies. assignArgs mirrors mapreduce.TaskSpec
// with the Job flattened to its wire form (TaskSpec itself carries
// function fields and cannot gob) and the runs to their RunDesc face.
type assignArgs struct {
	Job         mapreduce.JobWire
	Run         uint64
	Phase       string
	TaskID      string
	Index       int
	Attempt     int
	Node        string
	MapOnly     bool
	NumReducers int
	Split       mapreduce.InputSplit
	Partition   int
	Runs        []mapreduce.RunDesc
}

type assignReply struct{}

type shutdownArgs struct{}

type shutdownReply struct{}

// WorkerConfig configures NewWorker.
type WorkerConfig struct {
	// Node is the cluster node ID this worker serves as tasktracker.
	Node string
	// Slots is how many tasks run concurrently.
	Slots int
	// Transport reaches the jobtracker; Addr is where this worker's
	// own server is bound (sent along at registration so assignments
	// find their way back).
	Transport      Transport
	JobtrackerAddr string
	Addr           string
	// HeartbeatEvery is the heartbeat period (default 250ms; keep it
	// well under the jobtracker's grace).
	HeartbeatEvery time.Duration
	// TaskOverhead sleeps before each task attempt, stretching runs so
	// fault drills (kill a worker mid-job) land mid-phase reliably.
	TaskOverhead time.Duration
	// Registry receives this worker's telemetry (RPC client/server
	// metrics, task counters, retry counters); one is created when
	// nil. The whole registry rides every heartbeat to the jobtracker
	// as a federated snapshot.
	Registry *obs.Registry
	// Logger receives structured runtime logs (nil discards them).
	Logger *slog.Logger
}

// Worker is one tasktracker process: it registers with the jobtracker,
// heartbeats, accepts task assignments into a bounded queue, executes
// them on slot goroutines against the remote DFS, and reports
// completions (with retries — the report must land or the attempt
// hangs driver-side until loss detection).
type Worker struct {
	cfg   WorkerConfig
	srv   *Server
	store *RemoteStore
	tr    Transport // cfg.Transport wrapped with client telemetry
	reg   *obs.Registry
	log   *slog.Logger
	epoch int64 // start time (UnixNano), versioning federated snapshots
	busy  *obs.Gauge

	queue chan assignArgs

	mu   sync.Mutex
	seen map[attemptID]bool // assigned attempts, for duplicate-delivery dedup

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	tasksRun atomic.Int64
}

// NewWorker creates a worker. Bind its Server() on the network, then
// call Run.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Slots <= 0 {
		cfg.Slots = 1
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 250 * time.Millisecond
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	tr := Instrument(cfg.Transport, reg)
	w := &Worker{
		cfg:   cfg,
		srv:   NewServer(),
		store: NewRemoteStore(tr, cfg.JobtrackerAddr),
		tr:    tr,
		reg:   reg,
		log:   orNopLogger(cfg.Logger),
		epoch: time.Now().UnixNano(),
		busy:  reg.Gauge("worker_busy_slots", "Slots currently executing a task.", nil),
		queue: make(chan assignArgs, 1024),
		seen:  make(map[attemptID]bool),
		stop:  make(chan struct{}),
	}
	w.store.Instrument(reg)
	w.srv.Instrument(reg)
	Handle(w.srv, "worker.assign", w.handleAssign)
	Handle(w.srv, "worker.shutdown", w.handleShutdown)
	return w
}

// Registry returns the worker's telemetry registry.
func (w *Worker) Registry() *obs.Registry { return w.reg }

// Server returns the worker's RPC surface for binding.
func (w *Worker) Server() *Server { return w.srv }

// TasksRun reports how many task attempts this worker has executed.
func (w *Worker) TasksRun() int64 { return w.tasksRun.Load() }

// Run registers with the jobtracker (retrying while it comes up),
// then serves tasks until Stop — or until the jobtracker disowns this
// worker, at which point it fence-stops. It blocks.
func (w *Worker) Run() error {
	var err error
	for i := 0; i < 40; i++ {
		args := registerArgs{Node: w.cfg.Node, Addr: w.cfg.Addr, Slots: w.cfg.Slots}
		var reply registerReply
		if err = w.tr.Call(w.cfg.JobtrackerAddr, "jt.register", &args, &reply); err == nil {
			break
		}
		if !IsTransportError(err) {
			// The jobtracker answered and said no (unknown node, bad
			// slot count); retrying cannot change its mind.
			break
		}
		select {
		case <-w.stop:
			return nil
		case <-time.After(50 * time.Millisecond):
		}
	}
	if err != nil {
		return fmt.Errorf("rpc: worker %s: register: %v", w.cfg.Node, err)
	}
	w.log.Info("registered with jobtracker", "worker", w.cfg.Node, "jobtracker", w.cfg.JobtrackerAddr, "slots", w.cfg.Slots)
	for i := 0; i < w.cfg.Slots; i++ {
		w.wg.Add(1)
		go w.slotLoop()
	}
	w.wg.Add(1)
	go w.heartbeatLoop()
	w.wg.Wait()
	return nil
}

// Stop halts the worker's loops. Safe to call more than once.
func (w *Worker) Stop() {
	w.stopOnce.Do(func() { close(w.stop) })
}

func (w *Worker) handleAssign(a *assignArgs) (*assignReply, error) {
	key := attemptID{a.Run, a.TaskID, a.Attempt}
	w.mu.Lock()
	if w.seen[key] {
		// Duplicate delivery of an assignment already queued or run:
		// ack without re-queueing (running the same attempt twice would
		// race on its attempt-unique temp file).
		w.mu.Unlock()
		w.reg.Counter("rpc_assign_duplicates_total", "Duplicate assignment deliveries acked without re-queueing.", nil).Inc()
		return &assignReply{}, nil
	}
	w.seen[key] = true
	w.mu.Unlock()
	select {
	case w.queue <- *a:
		return &assignReply{}, nil
	default:
		// Full queue: refuse, and forget the key so a retry after
		// backoff can land.
		w.mu.Lock()
		delete(w.seen, key)
		w.mu.Unlock()
		return nil, fmt.Errorf("rpc: worker %s: task queue full", w.cfg.Node)
	}
}

// seenRuns lists the distinct runs with dedup keys held.
func (w *Worker) seenRuns() []uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	var runs []uint64
	for id := range w.seen {
		if !slices.Contains(runs, id.run) {
			runs = append(runs, id.run)
		}
	}
	return runs
}

// forgetRuns drops the dedup keys of runs the jobtracker reported as
// having nothing in flight.
func (w *Worker) forgetRuns(ended []uint64) {
	if len(ended) == 0 {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for id := range w.seen {
		if slices.Contains(ended, id.run) {
			delete(w.seen, id)
		}
	}
}

func (w *Worker) handleShutdown(*shutdownArgs) (*shutdownReply, error) {
	// Reply first, then die: Stop in a goroutine so the ack makes it
	// back out before the process winds down.
	go w.Stop()
	return &shutdownReply{}, nil
}

func (w *Worker) slotLoop() {
	defer w.wg.Done()
	for {
		select {
		case <-w.stop:
			return
		case a := <-w.queue:
			w.runTask(a)
		}
	}
}

// runTask executes one assigned attempt and reports its completion.
func (w *Worker) runTask(a assignArgs) {
	w.busy.Add(1)
	defer w.busy.Add(-1)
	started := time.Now()
	if w.cfg.TaskOverhead > 0 {
		time.Sleep(w.cfg.TaskOverhead)
	}
	res, err := w.execute(a)
	w.tasksRun.Add(1)
	status := "succeeded"
	if err != nil {
		status = "failed"
	}
	w.reg.Counter("worker_tasks_total", "Task attempts executed by this worker, by status.", obs.Labels{"status": status}).Inc()
	// The completion is the attempt's one report: it carries the run
	// time measured here, which the jobtracker places on its own clock
	// at the instant the report lands.
	comp := completeArgs{
		Job: a.Job.Name, Run: a.Run, TaskID: a.TaskID, Attempt: a.Attempt, Node: w.cfg.Node,
		Exec: time.Since(started), Res: toResultWire(res),
	}
	if err != nil {
		comp.Err, comp.Permanent = err.Error(), isPermanent(err)
	}
	w.log.Debug("task attempt finished", "job", a.Job.Name, "task", a.TaskID, "attempt", a.Attempt, "status", status, "dur", comp.Exec)
	// The completion MUST land: without it the attempt hangs at the
	// driver until worker-loss detection. Retry through transient
	// drops; give up only when stopping (the driver's loss detection
	// then owns the outcome).
	for i := 0; i < 20; i++ {
		if i > 0 {
			w.reg.Counter("rpc_complete_retries_total", "Completion-report retries after transport failures.", nil).Inc()
		}
		var reply completeReply
		if cerr := w.tr.Call(w.cfg.JobtrackerAddr, "jt.complete", &comp, &reply); cerr == nil {
			return
		}
		select {
		case <-w.stop:
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	w.log.Warn("completion report never landed", "job", a.Job.Name, "task", a.TaskID, "attempt", a.Attempt)
}

// execute rebuilds the job from its wire form and runs the attempt
// against the remote store.
func (w *Worker) execute(a assignArgs) (mapreduce.TaskResult, error) {
	job, err := a.Job.Materialize()
	if err != nil {
		return mapreduce.TaskResult{}, err
	}
	spec := mapreduce.TaskSpec{
		Job: job, Run: a.Run, Phase: a.Phase, TaskID: a.TaskID, Index: a.Index,
		Attempt: a.Attempt, Node: a.Node, MapOnly: a.MapOnly,
		NumReducers: a.NumReducers, Split: a.Split,
		Partition: a.Partition, Runs: fileRuns(a.Runs),
	}
	return mapreduce.ExecuteTask(w.store, spec)
}

// heartbeatLoop keeps the jobtracker's liveness view fresh, and
// fence-stops the worker the moment the jobtracker disowns it: a lost
// worker must not keep writing task output the scheduler has already
// reassigned.
func (w *Worker) heartbeatLoop() {
	defer w.wg.Done()
	tick := time.NewTicker(w.cfg.HeartbeatEvery)
	defer tick.Stop()
	var seq uint64
	for {
		select {
		case <-w.stop:
			return
		case <-tick.C:
			seq++
			args := heartbeatArgs{
				Node:       w.cfg.Node,
				Busy:       int(w.busy.Value()),
				Epoch:      w.epoch,
				MetricsSeq: seq,
				Metrics:    w.reg.Snapshot(),
				Runs:       w.seenRuns(),
			}
			var reply heartbeatReply
			if err := w.tr.Call(w.cfg.JobtrackerAddr, "jt.heartbeat", &args, &reply); err != nil {
				// Transient loss: keep beating; the jobtracker's grace
				// window decides when this worker is gone.
				continue
			}
			w.forgetRuns(reply.EndedRuns)
			if !reply.Registered {
				w.log.Warn("disowned by jobtracker, fence-stopping", "worker", w.cfg.Node)
				w.Stop()
				return
			}
		}
	}
}
