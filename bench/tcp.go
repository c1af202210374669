package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/rpc"
	"repro/internal/dfs"
	"repro/internal/gepeto"
	"repro/internal/mapreduce"
)

// The benchmark binary plays three roles, selected by environment so
// that the package test's binary can play them too: the parent that
// supervises, the child that runs one workload, and a kmeans-tcp worker.
const (
	envRole   = "GEPETO_BENCH_ROLE"
	envWorker = "GEPETO_BENCH_WORKER" // "<node>|<jobtracker addr>"
)

// workerHeartbeat is the workers' heartbeat period; every beat carries
// the worker's whole metrics registry to the jobtracker.
const workerHeartbeat = 250 * time.Millisecond

// exitWhenOrphaned ends the process when stdin reaches EOF. Children
// and workers get a pipe whose write end only their parent holds, so
// they cannot outlive it, however it died.
func exitWhenOrphaned() {
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin) // any outcome means the parent is gone
		os.Exit(3)
	}()
}

// serve dispatches connections on ln until the listener is closed,
// which is how every server of the benchmark ends.
func serve(ln net.Listener, srv *rpc.Server) {
	go func() {
		if err := rpc.Serve(ln, srv); err != nil {
			return // Accept failed: the listener was closed
		}
	}()
}

// workerMain is one tasktracker process: one slot, GOMAXPROCS=1 (set by
// the spawner), serving assignments until the jobtracker shuts it down.
func workerMain() error {
	node, jtAddr, ok := strings.Cut(os.Getenv(envWorker), "|")
	if !ok {
		return fmt.Errorf("worker: %s is not <node>|<addr>", envWorker)
	}
	exitWhenOrphaned()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	w := rpc.NewWorker(rpc.WorkerConfig{
		Node: node, Slots: 1, Transport: &rpc.TCPNetwork{},
		JobtrackerAddr: jtAddr, Addr: ln.Addr().String(), HeartbeatEvery: workerHeartbeat,
	})
	serve(ln, w.Server())
	return w.Run()
}

// tcpDeploy is a jobtracker in this process plus worker processes.
type tcpDeploy struct {
	fs      *dfs.FileSystem
	jt      *rpc.Jobtracker
	ln      net.Listener
	engine  *mapreduce.Engine
	workers []*exec.Cmd
	stdins  []io.Closer
}

func deployTCP(seed int64) (d *tcpDeploy, err error) {
	cl, err := cluster.NewUniform(tcpWorkers, deployRacks, 1)
	if err != nil {
		return nil, err
	}
	fs, err := dfs.New(cl, dfs.Config{ChunkSize: deployChunkBytes, Replication: deployReplication, Seed: seed})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// A generous grace: a worker starved of CPU for two seconds on a
	// shared box must not be declared lost mid-measurement.
	jt := rpc.NewJobtracker(rpc.JobtrackerConfig{
		Cluster: cl, FS: fs, Transport: &rpc.TCPNetwork{}, HeartbeatGrace: 10 * time.Second,
	})
	serve(ln, jt.Server())
	d = &tcpDeploy{fs: fs, jt: jt, ln: ln}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	for i, n := range cl.Nodes() {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), envRole+"=worker",
			envWorker+"="+n.ID+"|"+ln.Addr().String(), "GOMAXPROCS=1")
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("starting worker %d: %v", i, err)
		}
		d.workers = append(d.workers, cmd)
		d.stdins = append(d.stdins, stdin)
	}
	if err := jt.WaitForWorkers(tcpWorkers, 20*time.Second); err != nil {
		return nil, err
	}
	d.engine = mapreduce.NewEngine(cl, fs, mapreduce.Options{Executor: jt.Executor()})
	return d, nil
}

// close shuts the workers down, waits for each to exit, then stops the
// jobtracker. A worker that ignores the shutdown loses its stdin, which
// ends it; one that survives even that is killed.
func (d *tcpDeploy) close() {
	d.jt.ShutdownWorkers()
	for i, cmd := range d.workers {
		done := make(chan struct{})
		go func() {
			_ = cmd.Wait() // exit status of a worker being torn down carries nothing
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(3 * time.Second):
			_ = d.stdins[i].Close()
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				_ = cmd.Process.Kill()
				<-done
			}
		}
		_ = d.stdins[i].Close()
	}
	d.workers, d.stdins = nil, nil
	d.jt.Stop()
	_ = d.ln.Close()
}

// tcpRunner is the kmeans-tcp workload. Its measurement is one
// KMeansMR call whose iterations are the samples: a second call on the
// same deployment would repeat the job names, the workers would ack the
// second job's assignments as duplicate deliveries, and the call would
// never return (ROADMAP item 4). A second measurement therefore deploys
// afresh.
type tcpRunner struct {
	size sizing
	seed int64

	d           *tcpDeploy
	used        bool
	records     int
	corpusBytes int64
	ref         *kmeansRef
}

func (r *tcpRunner) setup(log *spanLog) (setupTimes, error) {
	r.close()
	root := log.begin(0, "setup", "setup")
	defer log.end(root)
	t0 := time.Now()
	sp := log.begin(root, "setup", "deploy")
	d, err := deployTCP(r.seed)
	log.end(sp)
	if err != nil {
		return setupTimes{}, err
	}
	deploy := time.Since(t0)
	records, gen, up, err := uploadText(bigCorpus)(d.fs, r.size, r.seed)
	if err != nil {
		d.close()
		return setupTimes{}, err
	}
	st := setupDone(log, root, t0, deploy, gen, up)
	r.d, r.used, r.records = d, false, records
	r.corpusBytes = dirBytes(d.fs, "data")
	return st, nil
}

func (r *tcpRunner) reference() error {
	ref, err := newKMeansRef(r.d.fs, "data", kmeansOptions(r.seed, 1))
	r.ref = ref
	return err
}

func (r *tcpRunner) shape() (int, int64, int) { return r.records, r.corpusBytes, tcpWorkers }

func (r *tcpRunner) close() {
	if r.d != nil {
		r.d.close()
		r.d = nil
	}
	runtime.GC()
}

func (r *tcpRunner) measure(n int, log *spanLog) (plain, traced measurement) {
	plain = r.call(n, nil)
	if log != nil {
		traced = r.call(n, log)
	}
	return plain, traced
}

// call is one KMeansMR call of n+1 iterations; with a span log it is
// the traced one.
func (r *tcpRunner) call(n int, log *spanLog) measurement {
	m := measurement{Attempted: n}
	failAll := func(err error) measurement {
		m.Failed = n
		m.Errors = []string{err.Error()}
		return m
	}
	if r.used {
		if _, err := r.setup(nil); err != nil {
			return failAll(fmt.Errorf("redeploying: %v", err))
		}
	}
	r.used = true
	runtime.GC()
	rep := log.begin(0, "rep", "call")
	io0, p0, kids0 := r.d.fs.IOStats(), snapProc(), cpuSeconds(syscall.RUSAGE_CHILDREN)
	reg0 := rpcTotals(r.d.jt)
	var hs *heapSampler
	if log != nil {
		hs = startHeapSampler()
	}
	call := log.begin(rep, "pipeline", "kmeans-tcp")
	t0 := time.Now()
	// Iteration 0 is the warm-up; it also carries the seeding pass.
	res, err := gepeto.KMeansMR(r.d.engine, []string{"data"}, "kmeans-work", kmeansOptions(r.seed, n+1))
	end := time.Now()
	log.end(call)
	var peak uint64
	if hs != nil {
		peak = hs.Stop()
	}
	p1, io1 := snapProc(), r.d.fs.IOStats()
	if err == nil && res.Iterations != n+1 {
		err = fmt.Errorf("k-means ran %d iterations, want exactly %d", res.Iterations, n+1)
	}
	if err != nil {
		log.end(rep)
		return failAll(err)
	}
	jobs := jobsFromResults(res.IterationResults)
	log.addJobs(call, jobs)
	vs := log.begin(rep, "verify", "verify")
	_, err = verifyKMeansExact(r.ref, res)
	log.end(vs)
	log.end(rep)
	if err != nil {
		return failAll(err)
	}
	for i := 1; i <= n; i++ {
		next := end
		if i < n {
			next = res.IterationResults[i+1].Start
		}
		m.Walls = append(m.Walls, next.Sub(res.IterationResults[i].Start).Seconds())
	}
	m.AllocBytes, m.AllocReps = p1.totalAlloc-p0.totalAlloc, n+1
	if log != nil {
		// The layer aggregate spans the whole call, warm-up included:
		// process counters cannot be split by iteration. Worker-side series
		// reach the jobtracker on the next heartbeat, and worker CPU is
		// known once the workers have been waited for.
		time.Sleep(2 * workerHeartbeat)
		rpc := rpcTotals(r.d.jt).minus(reg0)
		r.d.close()
		r.d = nil
		m.Agg = layerAgg{Reps: n + 1, WallS: end.Sub(t0).Seconds(), Jobs: jobs, RPC: &rpc}
		m.Agg.add(io0, io1, p0, p1, peak)
		m.Agg.CPUS += cpuSeconds(syscall.RUSAGE_CHILDREN) - kids0
	}
	return m
}

// rpcCounts is what the cluster.rpc.* metrics are derived from: the
// jobtracker's own registry (it serves the DFS and receives
// completions), the workers' federated series, and its fault counters.
type rpcCounts struct {
	present        map[string]bool // series seen at least once
	Calls          float64         // requests the jobtracker's server handled
	HandlerS       float64         // Σ server-side handler latency
	DFSReadCalls   float64
	DFSReadBytes   float64 // Σ dfs.read reply bodies
	DFSCreateCalls float64
	AssignCalls    float64 // worker.assign requests the workers handled
	AssignBytes    float64 // Σ their gob request bodies
	CallErrors     float64 // client calls, either side, that did not return ok
	Retries        float64
	DupCompletions float64
	LostWorkers    float64
}

func rpcTotals(jt *rpc.Jobtracker) rpcCounts {
	c := rpcCounts{present: map[string]bool{}}
	for _, p := range jt.MetricsSnapshot() {
		worker := p.Labels["worker"]
		if worker != "" && worker != "all" {
			continue // per-worker series are summed in the "all" aggregate
		}
		c.present[p.Name] = true
		method := p.Labels["method"]
		switch p.Name {
		case "rpc_server_handled_total":
			if worker == "" {
				c.Calls += float64(p.Value)
				switch method {
				case "dfs.read":
					c.DFSReadCalls += float64(p.Value)
				case "dfs.create":
					c.DFSCreateCalls += float64(p.Value)
				}
			} else if method == "worker.assign" {
				c.AssignCalls += float64(p.Value)
			}
		case "rpc_server_latency_seconds":
			if worker == "" {
				c.HandlerS += p.Sum
			}
		case "rpc_server_reply_bytes":
			if worker == "" && method == "dfs.read" {
				c.DFSReadBytes += p.Sum
			}
		case "rpc_server_request_bytes":
			if worker != "" && method == "worker.assign" {
				c.AssignBytes += p.Sum
			}
		case "rpc_client_calls_total":
			if p.Labels["status"] != "ok" {
				c.CallErrors += float64(p.Value)
			}
		case "rpc_store_retries_total", "rpc_complete_retries_total":
			c.Retries += float64(p.Value)
		}
	}
	c.DupCompletions = float64(jt.DupCompletions())
	c.LostWorkers = float64(len(jt.ClusterState().Lost))
	return c
}

func (c rpcCounts) minus(o rpcCounts) rpcCounts {
	return rpcCounts{
		present: c.present,
		Calls:   c.Calls - o.Calls, HandlerS: c.HandlerS - o.HandlerS,
		DFSReadCalls: c.DFSReadCalls - o.DFSReadCalls, DFSReadBytes: c.DFSReadBytes - o.DFSReadBytes,
		DFSCreateCalls: c.DFSCreateCalls - o.DFSCreateCalls,
		AssignCalls:    c.AssignCalls - o.AssignCalls, AssignBytes: c.AssignBytes - o.AssignBytes,
		CallErrors: c.CallErrors - o.CallErrors, Retries: c.Retries - o.Retries,
		DupCompletions: c.DupCompletions - o.DupCompletions, LostWorkers: c.LostWorkers - o.LostWorkers,
	}
}
