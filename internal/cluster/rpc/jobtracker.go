package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/mapreduce"
	"repro/internal/obs"
)

// Control-plane method args/replies.
type registerArgs struct {
	Node  string // cluster node ID this worker serves
	Addr  string // address the worker's own server is reachable at
	Slots int
}

type registerReply struct{}

type heartbeatArgs struct {
	Node string
	// Busy is how many of the worker's slots are executing a task.
	Busy int
	// Epoch (the worker's start time, UnixNano) and MetricsSeq (a
	// per-beat sequence number) version the Metrics snapshot so the
	// federation can drop duplicated or reordered deliveries; Metrics
	// is the worker's whole registry as a cumulative snapshot.
	Epoch      int64
	MetricsSeq uint64
	Metrics    []obs.MetricPoint
	// Runs lists the runs (mapreduce.TaskSpec.Run) this worker holds
	// assignment-dedup keys for; the reply names those it can forget.
	Runs []uint64
}

type heartbeatReply struct {
	// Registered is false when the jobtracker does not know this
	// worker (it was declared lost, or the jobtracker restarted). The
	// worker fence-stops on seeing it: a deregistered worker must not
	// keep executing tasks the scheduler has already re-run elsewhere.
	Registered bool
	// EndedRuns is the subset of the beat's Runs with no attempt in
	// flight anywhere: nothing of theirs can be delivered twice any
	// more, so the worker drops their dedup keys and a long-lived
	// worker's state stays bounded by the work in flight.
	EndedRuns []uint64
}

type completeArgs struct {
	Job     string
	Run     uint64
	TaskID  string
	Attempt int
	Node    string
	// Exec is the attempt's run time as the worker measured it: a
	// duration, so it needs no clock shared with the jobtracker.
	Exec time.Duration
	Err  string
	// Permanent marks an Err no retry can mend (a record the job's
	// input codec rejects): the scheduler fails the task at once.
	Permanent bool
	Res       resultWire
}

// permanentError is a worker's failure marked Permanent, rebuilt on the
// jobtracker side: its Permanent method is the mark the scheduler reads.
type permanentError struct{ msg string }

func (e permanentError) Error() string { return e.msg }

// Permanent marks the error as one no retry can mend.
func (permanentError) Permanent() bool { return true }

// isPermanent reports whether a task error carries the permanent mark.
func isPermanent(err error) bool {
	var p interface{ Permanent() bool }
	return errors.As(err, &p) && p.Permanent()
}

// resultWire mirrors mapreduce.TaskResult with every run reduced to
// its RunDesc face: a Run also has an in-memory form gob would drop
// silently, so the wire type makes the boundary explicit. Nothing is
// lost — a worker forces every run to a file.
type resultWire struct {
	Records      int64
	MapRuns      [][]mapreduce.RunDesc
	OutFile      string
	Stats        mapreduce.TaskStats
	UserCounters map[string]map[string]int64
}

func toResultWire(r mapreduce.TaskResult) resultWire {
	w := resultWire{
		Records: r.Records, OutFile: r.OutFile,
		Stats: r.Stats, UserCounters: r.UserCounters,
	}
	for _, runs := range r.MapRuns {
		w.MapRuns = append(w.MapRuns, runDescs(runs))
	}
	return w
}

func (w resultWire) taskResult() mapreduce.TaskResult {
	r := mapreduce.TaskResult{
		Records: w.Records, OutFile: w.OutFile,
		Stats: w.Stats, UserCounters: w.UserCounters,
	}
	for _, descs := range w.MapRuns {
		r.MapRuns = append(r.MapRuns, fileRuns(descs))
	}
	return r
}

// runDescs and fileRuns convert between runs and their wire face.
func runDescs(runs []mapreduce.Run) []mapreduce.RunDesc {
	descs := make([]mapreduce.RunDesc, len(runs))
	for i, r := range runs {
		descs[i] = r.RunDesc
	}
	return descs
}

func fileRuns(descs []mapreduce.RunDesc) []mapreduce.Run {
	runs := make([]mapreduce.Run, len(descs))
	for i, d := range descs {
		runs[i] = mapreduce.Run{RunDesc: d}
	}
	return runs
}

type completeReply struct{}

// remoteWorker is the jobtracker's view of one registered worker.
type remoteWorker struct {
	node     string
	addr     string
	slots    int
	lastBeat time.Time
	joined   time.Time
	busy     int // slots executing, from the latest heartbeat
	// tasksDone/tasksFailed tally completion reports delivered to a
	// waiting RunTask (duplicates and abandoned attempts excluded).
	tasksDone   int64
	tasksFailed int64
	// lost is closed exactly once, when the worker is declared lost;
	// every in-flight RunTask waiting on this worker unblocks and the
	// scheduler retries on another node.
	lost chan struct{}
}

// lostRecord remembers a departed worker for the cluster view; a
// re-registration of the same node clears it.
type lostRecord struct {
	node   string
	addr   string
	reason string
	at     time.Time
}

// completion is a finished attempt's report, forwarded to the RunTask
// call that assigned it.
type completion struct {
	res       mapreduce.TaskResult
	exec      time.Duration
	errMsg    string
	permanent bool
}

// JobtrackerConfig configures NewJobtracker.
type JobtrackerConfig struct {
	Cluster *cluster.Cluster
	FS      *dfs.FileSystem
	// Obs receives membership events and one RPCRoundTrip per
	// completed remote attempt (may be nil).
	Obs *obs.Bus
	// Transport is how the jobtracker reaches workers (assignments and
	// shutdowns) — typically the same network the workers use to reach
	// it.
	Transport Transport
	// HeartbeatGrace is how long a worker may go silent before being
	// declared lost (default 2s). The monitor checks at grace/4.
	HeartbeatGrace time.Duration
	// Registry receives the jobtracker's own telemetry: client- and
	// server-side RPC counters, latencies and payload sizes. One is
	// created when nil; either way the transport and server are
	// instrumented unconditionally.
	Registry *obs.Registry
	// Logger receives structured runtime logs (nil discards them).
	Logger *slog.Logger
}

// Jobtracker is the driver-side service of the out-of-process backend.
// It owns worker membership (registration, heartbeats, loss detection),
// serves the DFS to workers, and exposes an Executor the engine's
// scheduler drives exactly like the in-process one.
//
// Creating a jobtracker marks every cluster node dead: a node is only
// schedulable once a live worker process registers for it (and
// cluster.Restart brings it back). The cluster's Kill hook feeds back
// in: killing a node — from a test, or from the heartbeat monitor —
// declares its worker lost and unblocks every attempt assigned there.
type Jobtracker struct {
	cluster *cluster.Cluster
	fs      *dfs.FileSystem
	bus     *obs.Bus
	tr      Transport
	grace   time.Duration
	srv     *Server
	reg     *obs.Registry
	fed     *Federation
	log     *slog.Logger
	started time.Time

	mu      sync.Mutex
	workers map[string]*remoteWorker // by node ID
	lost    []lostRecord             // departed workers, for the cluster view
	pending map[attemptID]*pendingCall
	stopped bool

	dupCompletions atomic.Int64
	dupDFSCreates  atomic.Int64

	stop chan struct{}
	wg   sync.WaitGroup
}

type pendingCall struct {
	ch   chan completion // buffered(1); at most one send wins
	node string          // placement, for the in-flight-per-worker view
}

// NewJobtracker creates the service and starts its heartbeat monitor.
// Bind its Server() on the network before starting workers.
func NewJobtracker(cfg JobtrackerConfig) *Jobtracker {
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	jt := &Jobtracker{
		cluster: cfg.Cluster,
		fs:      cfg.FS,
		bus:     cfg.Obs,
		tr:      Instrument(cfg.Transport, reg),
		grace:   cfg.HeartbeatGrace,
		srv:     NewServer(),
		reg:     reg,
		fed:     NewFederation(),
		log:     orNopLogger(cfg.Logger),
		started: time.Now(),
		workers: make(map[string]*remoteWorker),
		pending: make(map[attemptID]*pendingCall),
		stop:    make(chan struct{}),
	}
	jt.srv.Instrument(reg)
	if jt.grace <= 0 {
		jt.grace = 2 * time.Second
	}
	// No worker process, no schedulable node. Nodes come back alive as
	// workers register for them.
	for _, n := range cfg.Cluster.Nodes() {
		cfg.Cluster.Kill(n.ID)
	}
	// From here on, a cluster-level kill (tests modelling node loss,
	// or our own heartbeat monitor) takes the worker down with it.
	cfg.Cluster.OnKill(func(id string) { jt.loseWorker(id, "node killed") })

	Handle(jt.srv, "jt.register", jt.handleRegister)
	Handle(jt.srv, "jt.heartbeat", jt.handleHeartbeat)
	Handle(jt.srv, "jt.complete", jt.handleComplete)
	Handle(jt.srv, "dfs.create", jt.handleDFSCreate)
	Handle(jt.srv, "dfs.read", jt.handleDFSRead)
	Handle(jt.srv, "dfs.size", jt.handleDFSSize)

	jt.wg.Add(1)
	go jt.monitor()
	return jt
}

// Server returns the service's RPC surface, for binding on a network
// (MemNetwork.Bind, or Serve over a TCP listener).
func (jt *Jobtracker) Server() *Server { return jt.srv }

// Executor returns the engine-facing executor: plug it into
// mapreduce.Options.Executor and every task attempt runs on a
// registered worker process.
func (jt *Jobtracker) Executor() mapreduce.Executor { return &rpcExecutor{jt: jt} }

// DupCompletions reports how many task completions arrived for
// attempts nobody was waiting on — duplicate deliveries, retried
// reports whose first copy already landed, or completions of abandoned
// attempts. The handler acks them all; this counter is how tests see
// the idempotency path actually taken.
func (jt *Jobtracker) DupCompletions() int64 { return jt.dupCompletions.Load() }

// DupDFSCreates reports how many dfs.create calls were acked as
// byte-identical duplicate deliveries instead of performed.
func (jt *Jobtracker) DupDFSCreates() int64 { return jt.dupDFSCreates.Load() }

// Registry returns the jobtracker's own telemetry registry.
func (jt *Jobtracker) Registry() *obs.Registry { return jt.reg }

// Federation returns the merged per-worker metrics view.
func (jt *Jobtracker) Federation() *Federation { return jt.fed }

// MetricsSnapshot returns the whole cluster's metrics as one flat
// list: the jobtracker's own registry, synthesized cluster-membership
// points, and every federated worker snapshot (worker-labeled plus
// worker="all" aggregates). Render it with obs.WriteMetricPoints or
// serve it as JSON.
func (jt *Jobtracker) MetricsSnapshot() []obs.MetricPoint {
	out := jt.reg.Snapshot()
	out = append(out, jt.clusterPoints()...)
	out = append(out, jt.fed.Snapshot()...)
	return out
}

// clusterPoints synthesizes membership and fault-path metrics that
// live in jobtracker state rather than any registry: worker counts,
// heartbeat ages, busy slots, and the
// idempotency-path counters (duplicate completions, duplicate DFS
// creates, stale federation drops).
func (jt *Jobtracker) clusterPoints() []obs.MetricPoint {
	now := time.Now()
	jt.mu.Lock()
	ids := make([]string, 0, len(jt.workers))
	for id := range jt.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	points := []obs.MetricPoint{
		{Name: "cluster_workers", Type: "gauge", Value: int64(len(jt.workers))},
	}
	for _, id := range ids {
		w := jt.workers[id]
		lbl := map[string]string{"worker": id}
		points = append(points,
			obs.MetricPoint{Name: "cluster_worker_heartbeat_age_seconds", Type: "gauge", Labels: lbl, FValue: now.Sub(w.lastBeat).Seconds()},
			obs.MetricPoint{Name: "cluster_worker_slots_busy", Type: "gauge", Labels: lbl, Value: int64(w.busy)},
		)
	}
	lostTotal := int64(len(jt.lost))
	jt.mu.Unlock()
	points = append(points,
		obs.MetricPoint{Name: "cluster_workers_lost", Type: "gauge", Value: lostTotal},
		obs.MetricPoint{Name: "cluster_dup_completions_total", Type: "counter", Value: jt.dupCompletions.Load()},
		obs.MetricPoint{Name: "cluster_dfs_dup_creates_total", Type: "counter", Value: jt.dupDFSCreates.Load()},
		obs.MetricPoint{Name: "cluster_fed_stale_drops_total", Type: "counter", Value: jt.fed.StaleDrops()},
	)
	return points
}

// Workers returns the currently registered worker node IDs.
func (jt *Jobtracker) Workers() []string {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	out := make([]string, 0, len(jt.workers))
	for id := range jt.workers {
		out = append(out, id)
	}
	return out
}

// WaitForWorkers blocks until n workers are registered, the timeout
// expires, or the jobtracker is stopped.
func (jt *Jobtracker) WaitForWorkers(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		jt.mu.Lock()
		cur := len(jt.workers)
		jt.mu.Unlock()
		if cur >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("rpc: %d/%d workers registered after %v", cur, n, timeout)
		}
		select {
		case <-jt.stop:
			return fmt.Errorf("rpc: jobtracker stopped while waiting for workers (%d/%d registered)", cur, n)
		case <-tick.C:
		}
	}
}

// Stop halts the heartbeat monitor. It does not shut workers down —
// call ShutdownWorkers first for a clean teardown.
func (jt *Jobtracker) Stop() {
	jt.mu.Lock()
	if jt.stopped {
		jt.mu.Unlock()
		return
	}
	jt.stopped = true
	jt.mu.Unlock()
	close(jt.stop)
	jt.wg.Wait()
}

// ShutdownWorkers asks every registered worker to exit (best-effort —
// a worker that lost the network exits via its own heartbeat fence).
func (jt *Jobtracker) ShutdownWorkers() {
	jt.mu.Lock()
	addrs := make([]string, 0, len(jt.workers))
	for _, w := range jt.workers {
		addrs = append(addrs, w.addr)
	}
	jt.mu.Unlock()
	for _, addr := range addrs {
		var reply shutdownReply
		if err := jt.tr.Call(addr, "worker.shutdown", &shutdownArgs{}, &reply); err != nil {
			// Unreachable worker: its heartbeat fence will stop it.
			continue
		}
	}
}

// monitor declares workers lost when their heartbeats stop for the
// grace period, then kills their cluster node so the scheduler stops
// placing work there — the Hadoop jobtracker's expiry thread.
func (jt *Jobtracker) monitor() {
	defer jt.wg.Done()
	tick := time.NewTicker(jt.grace / 4)
	defer tick.Stop()
	for {
		select {
		case <-jt.stop:
			return
		case now := <-tick.C:
			var expired []string
			jt.mu.Lock()
			for id, w := range jt.workers {
				if now.Sub(w.lastBeat) > jt.grace {
					expired = append(expired, id)
				}
			}
			jt.mu.Unlock()
			for _, id := range expired {
				jt.loseWorker(id, "heartbeat timeout")
				// Kill the modelled node too (its hook no-ops: the
				// worker is already gone).
				jt.cluster.Kill(id)
			}
		}
	}
}

// loseWorker removes a worker from membership and unblocks everything
// waiting on it. Idempotent: losing an unknown worker is a no-op, so
// the kill-hook path and the heartbeat path can race safely.
func (jt *Jobtracker) loseWorker(id, reason string) {
	jt.mu.Lock()
	w, ok := jt.workers[id]
	if !ok {
		jt.mu.Unlock()
		return
	}
	delete(jt.workers, id)
	jt.lost = append(jt.lost, lostRecord{node: id, addr: w.addr, reason: reason, at: time.Now()})
	jt.mu.Unlock()
	close(w.lost)
	jt.log.Warn("worker lost", "worker", id, "addr", w.addr, "reason", reason)
	jt.bus.Emit(obs.Event{Type: obs.WorkerLost, Node: id, Err: reason})
	// Best-effort fence: tell the process to stop if it is still
	// reachable (a killed node's process may be healthy — the model
	// killed it, not the OS).
	go func() {
		var reply shutdownReply
		if err := jt.tr.Call(w.addr, "worker.shutdown", &shutdownArgs{}, &reply); err != nil {
			return // already dead or partitioned; its heartbeat fence handles it
		}
	}()
}

func (jt *Jobtracker) handleRegister(a *registerArgs) (*registerReply, error) {
	if _, ok := jt.cluster.Node(a.Node); !ok {
		return nil, fmt.Errorf("rpc: register: unknown cluster node %q", a.Node)
	}
	if a.Slots <= 0 {
		return nil, fmt.Errorf("rpc: register %s: %d slots, want > 0", a.Node, a.Slots)
	}
	now := time.Now()
	w := &remoteWorker{
		node: a.Node, addr: a.Addr, slots: a.Slots,
		lastBeat: now, joined: now, lost: make(chan struct{}),
	}
	jt.mu.Lock()
	old := jt.workers[a.Node]
	jt.workers[a.Node] = w
	// A node coming back clears its tombstone in the lost list.
	kept := jt.lost[:0]
	for _, l := range jt.lost {
		if l.node != a.Node {
			kept = append(kept, l)
		}
	}
	jt.lost = kept
	jt.mu.Unlock()
	if old != nil {
		// A replacement registration (worker restart): attempts still
		// waiting on the old incarnation will never complete — fail
		// them so the scheduler reissues.
		close(old.lost)
	}
	jt.cluster.Restart(a.Node)
	jt.log.Info("worker registered", "worker", a.Node, "addr", a.Addr, "slots", a.Slots, "replaced", old != nil)
	jt.bus.Emit(obs.Event{Type: obs.WorkerJoined, Node: a.Node, Detail: fmt.Sprintf("addr=%s slots=%d", a.Addr, a.Slots)})
	return &registerReply{}, nil
}

func (jt *Jobtracker) handleHeartbeat(a *heartbeatArgs) (*heartbeatReply, error) {
	now := time.Now()
	jt.mu.Lock()
	w, ok := jt.workers[a.Node]
	if ok {
		w.lastBeat = now
		w.busy = a.Busy
	}
	var ended []uint64
	for _, run := range a.Runs {
		live := false
		for id := range jt.pending {
			if id.run == run {
				live = true
				break
			}
		}
		if !live {
			ended = append(ended, run)
		}
	}
	jt.mu.Unlock()
	if a.Epoch != 0 {
		jt.fed.Apply(a.Node, a.Epoch, a.MetricsSeq, a.Metrics)
	}
	return &heartbeatReply{Registered: ok, EndedRuns: ended}, nil
}

func (jt *Jobtracker) handleComplete(a *completeArgs) (*completeReply, error) {
	key := attemptID{a.Run, a.TaskID, a.Attempt}
	jt.mu.Lock()
	p, ok := jt.pending[key]
	if ok {
		delete(jt.pending, key)
	}
	jt.mu.Unlock()
	if !ok {
		// Nobody waiting: a duplicate delivery, a retried report whose
		// first copy landed, or an abandoned attempt. Idempotent ack —
		// re-erroring would make the worker retry forever.
		jt.dupCompletions.Add(1)
		jt.log.Debug("duplicate completion acked", "job", a.Job, "task", a.TaskID, "attempt", a.Attempt, "worker", a.Node)
		return &completeReply{}, nil
	}
	jt.mu.Lock()
	if w := jt.workers[a.Node]; w != nil {
		if a.Err != "" {
			w.tasksFailed++
		} else {
			w.tasksDone++
		}
	}
	jt.mu.Unlock()
	jt.log.Debug("attempt completed", "job", a.Job, "task", a.TaskID, "attempt", a.Attempt, "worker", a.Node, "err", a.Err)
	p.ch <- completion{res: a.Res.taskResult(), exec: a.Exec, errMsg: a.Err, permanent: a.Permanent} // buffered(1), sole sender
	return &completeReply{}, nil
}

func (jt *Jobtracker) handleDFSCreate(a *dfsCreateArgs) (*dfsCreateReply, error) {
	if err := jt.fs.Create(a.Path, a.Data, a.Node); err != nil {
		// Idempotent-create rule: a path that already holds exactly
		// these bytes is a duplicate delivery (RemoteStore retrying a
		// create whose reply was lost, or a duplicated request), not a
		// conflict — worker-side paths are attempt-unique, so only a
		// re-delivery of the same write can collide with itself.
		if existing, rerr := jt.fs.ReadAll(a.Path); rerr == nil && bytes.Equal(existing, a.Data) {
			jt.dupDFSCreates.Add(1)
			return &dfsCreateReply{}, nil
		}
		return nil, err
	}
	return &dfsCreateReply{}, nil
}

func (jt *Jobtracker) handleDFSRead(a *dfsReadArgs) (*dfsReadReply, error) {
	data, err := jt.fs.ReadRange(a.Path, a.Off, a.Len)
	if err != nil {
		return nil, err
	}
	return &dfsReadReply{Data: data}, nil
}

func (jt *Jobtracker) handleDFSSize(a *dfsSizeArgs) (*dfsSizeReply, error) {
	size, err := jt.fs.Size(a.Path)
	if err != nil {
		return nil, err
	}
	return &dfsSizeReply{Size: size}, nil
}

// attemptID names one task attempt of one Engine.Run call; both ends
// key their idempotency state on it. The run, not the job name, tells
// submissions apart: see mapreduce.TaskSpec.Run.
type attemptID struct {
	run     uint64
	task    string
	attempt int
}

// rpcExecutor bridges the scheduler to remote workers: RunTask ships
// the attempt to the worker registered for the placed node, then waits
// for its completion report, the worker's loss, or the phase ending.
type rpcExecutor struct {
	jt *Jobtracker
}

// External implements mapreduce.Executor: attempts run in worker
// processes.
func (x *rpcExecutor) External() bool { return true }

// RunTask implements mapreduce.Executor.
func (x *rpcExecutor) RunTask(ctx context.Context, spec mapreduce.TaskSpec) (mapreduce.TaskResult, error) {
	jt := x.jt
	jt.mu.Lock()
	w := jt.workers[spec.Node]
	jt.mu.Unlock()
	if w == nil {
		return mapreduce.TaskResult{}, fmt.Errorf("rpc: no worker registered for node %s", spec.Node)
	}
	wire, err := spec.Job.Wire()
	if err != nil {
		return mapreduce.TaskResult{}, err
	}
	key := attemptID{spec.Run, spec.TaskID, spec.Attempt}
	p := &pendingCall{ch: make(chan completion, 1), node: spec.Node}
	jt.mu.Lock()
	jt.pending[key] = p
	jt.mu.Unlock()
	defer func() {
		// Withdraw the claim if still present; a completion arriving
		// after this counts as a duplicate and is acked idempotently.
		jt.mu.Lock()
		delete(jt.pending, key)
		jt.mu.Unlock()
	}()

	args := assignArgs{
		Job: wire, Run: spec.Run, Phase: spec.Phase, TaskID: spec.TaskID, Index: spec.Index,
		Attempt: spec.Attempt, Node: spec.Node, MapOnly: spec.MapOnly,
		NumReducers: spec.NumReducers, Split: spec.Split,
		Partition: spec.Partition, Runs: runDescs(spec.Runs),
	}
	jt.log.Debug("assigning attempt", "job", spec.Job.Name, "task", spec.TaskID, "attempt", spec.Attempt, "worker", spec.Node)
	assigned := time.Now()
	var ack assignReply
	if err := jt.tr.Call(w.addr, "worker.assign", &args, &ack); err != nil {
		return mapreduce.TaskResult{}, fmt.Errorf("rpc: assign %s to %s: %v", spec.TaskID, spec.Node, err)
	}
	select {
	case c := <-p.ch:
		if ctx.Err() != nil {
			// The phase was decided while this report was in flight:
			// the attempt is already recorded killed, and its trace
			// may be finished.
			return mapreduce.TaskResult{}, ctx.Err()
		}
		// The attempt's one report, placed on this clock: the round
		// trip and the worker's run time both end now. The run happened
		// inside the round trip, so the exec window cannot be longer.
		rtt := time.Since(assigned)
		jt.bus.Emit(obs.Event{
			Type: obs.RPCRoundTrip, Job: spec.Job.Name, Phase: spec.Phase,
			Task: spec.TaskID, Attempt: spec.Attempt, Node: spec.Node,
			Dur: rtt, Value: int64(min(c.exec, rtt)), Err: c.errMsg,
		})
		if c.permanent {
			return mapreduce.TaskResult{}, permanentError{c.errMsg}
		}
		if c.errMsg != "" {
			return mapreduce.TaskResult{}, fmt.Errorf("%s", c.errMsg)
		}
		return c.res, nil
	case <-w.lost:
		return mapreduce.TaskResult{}, fmt.Errorf("rpc: worker %s lost while running %s", spec.Node, spec.TaskID)
	case <-ctx.Done():
		// Phase over: a losing speculative attempt is abandoned, its
		// eventual completion acked as a duplicate.
		return mapreduce.TaskResult{}, ctx.Err()
	}
}
