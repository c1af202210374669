// End-to-end tests of the out-of-process backend: the same jobs run
// once on the in-process executor and once through the jobtracker with
// real (goroutine-hosted) worker loops over a gob-encoding network, and
// the outputs must match byte for byte. The workers here are the exact
// Worker used by `gepeto worker`; only the transport is in-memory.
package rpc_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/rpc"
	"repro/internal/dfs"
	"repro/internal/mapreduce"
	"repro/internal/recordio"
)

// Test job families, declared once per binary — the worker goroutines
// share the kind table with the driver, exactly as a worker binary
// importing the same package would.
type (
	wordCountShape = mapreduce.TypedJob[string, string, string, int64, string, int64]
	upperShape     = mapreduce.TypedJob[string, string, string, string, string, string]
	sumReducer     = mapreduce.TypedReducer[string, int64, string, int64]
)

func wcMap(ctx *mapreduce.TaskContext, _, value string, emit mapreduce.TypedEmit[string, int64]) error {
	for _, w := range strings.Fields(value) {
		ctx.Counter("rpctest", "words").Inc(1)
		emit(w, 1)
	}
	return nil
}

func sumReduce(_ *mapreduce.TaskContext, key string, values []int64, emit mapreduce.TypedEmit[string, int64]) error {
	var total int64
	for _, v := range values {
		total += v
	}
	emit(key, total)
	return nil
}

func newSumReducer() sumReducer {
	return mapreduce.TypedReduceFunc[string, int64, string, int64](sumReduce)
}

var wordCountKind = mapreduce.Declare(wordCountShape{
	Kind: "rpctest/wordcount",
	Mapper: func() mapreduce.TypedMapper[string, string, string, int64] {
		return mapreduce.TypedMapFunc[string, string, string, int64](wcMap)
	},
	Reducer:     newSumReducer,
	Combiner:    newSumReducer,
	InputKey:    recordio.RawString{},
	InputValue:  recordio.RawString{},
	MapKey:      recordio.RawString{},
	MapValue:    recordio.Int64{},
	OutputKey:   recordio.RawString{},
	OutputValue: recordio.Int64{},
})

var upperKind = mapreduce.Declare(upperShape{
	Kind: "rpctest/upper-maponly",
	Mapper: func() mapreduce.TypedMapper[string, string, string, string] {
		return mapreduce.TypedMapFunc[string, string, string, string](
			func(_ *mapreduce.TaskContext, _, value string, emit mapreduce.TypedEmit[string, string]) error {
				emit(strings.ToUpper(value), value)
				return nil
			})
	},
	InputKey:   recordio.RawString{},
	InputValue: recordio.RawString{},
	MapKey:     recordio.RawString{},
	MapValue:   recordio.RawString{},
})

// wordCountJob builds the job both backends run: the in-process run
// uses its function fields, the RPC run ships the Kind, and both come
// from the one declaration above.
func wordCountJob(withCombiner bool) *mapreduce.Job {
	tj := wordCountKind
	tj.Name, tj.InputPaths, tj.OutputPath, tj.NumReducers = "rpc-wordcount", []string{"in"}, "out", 3
	if !withCombiner {
		tj.Combiner = nil
	}
	return tj.Build()
}

// newTopology builds one 3-node cluster + DFS; calling it twice yields
// bit-identical topologies, so an in-process and an RPC run see the
// same splits, placement and slot counts.
func newTopology(t *testing.T, chunk int64) (*cluster.Cluster, *dfs.FileSystem) {
	t.Helper()
	c, err := cluster.NewUniform(3, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Replication 3 on 3 nodes: every chunk survives any single node
	// loss, so kill drills never turn into data loss.
	fs, err := dfs.New(c, dfs.Config{ChunkSize: chunk, Replication: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return c, fs
}

// backendOpts tunes the harness; zero values give a healthy cluster.
type backendOpts struct {
	grace        time.Duration // jobtracker heartbeat grace
	heartbeat    time.Duration // worker heartbeat period
	taskOverhead time.Duration // per-task sleep, to stretch runs for fault drills
	// jtTransport / workerTransport wrap the jobtracker's or one
	// worker's view of the network (e.g. in an Unreliable).
	jtTransport     func(inner rpc.Transport) rpc.Transport
	workerTransport func(node string, inner rpc.Transport) rpc.Transport
	// jtConfig / workerConfig adjust the final configs before the
	// processes start (observability wiring, clock skew).
	jtConfig     func(cfg *rpc.JobtrackerConfig)
	workerConfig func(node string, cfg *rpc.WorkerConfig)
}

// backend is a full multi-worker deployment on a MemNetwork.
type backend struct {
	net     *rpc.MemNetwork
	jt      *rpc.Jobtracker
	workers []*rpc.Worker
	done    []chan error
}

const jtAddr = "jt"

// startBackend stands up a jobtracker plus one worker loop per cluster
// node and waits until all have registered.
func startBackend(t *testing.T, c *cluster.Cluster, fs *dfs.FileSystem, o backendOpts) *backend {
	t.Helper()
	n := rpc.NewMemNetwork()
	jtTr := rpc.Transport(n)
	if o.jtTransport != nil {
		jtTr = o.jtTransport(n)
	}
	jtCfg := rpc.JobtrackerConfig{
		Cluster: c, FS: fs, Transport: jtTr, HeartbeatGrace: o.grace,
	}
	if o.jtConfig != nil {
		o.jtConfig(&jtCfg)
	}
	jt := rpc.NewJobtracker(jtCfg)
	n.Bind(jtAddr, jt.Server())
	b := &backend{net: n, jt: jt}
	hb := o.heartbeat
	if hb == 0 {
		hb = 50 * time.Millisecond
	}
	for _, node := range c.Nodes() {
		wTr := rpc.Transport(n)
		if o.workerTransport != nil {
			wTr = o.workerTransport(node.ID, n)
		}
		addr := "worker:" + node.ID
		wCfg := rpc.WorkerConfig{
			Node: node.ID, Slots: node.Slots,
			Transport: wTr, JobtrackerAddr: jtAddr, Addr: addr,
			HeartbeatEvery: hb, TaskOverhead: o.taskOverhead,
		}
		if o.workerConfig != nil {
			o.workerConfig(node.ID, &wCfg)
		}
		w := rpc.NewWorker(wCfg)
		n.Bind(addr, w.Server())
		done := make(chan error, 1)
		go func(w *rpc.Worker) { done <- w.Run() }(w)
		b.workers = append(b.workers, w)
		b.done = append(b.done, done)
	}
	if err := jt.WaitForWorkers(len(b.workers), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.stop)
	return b
}

func (b *backend) stop() {
	b.jt.ShutdownWorkers()
	for _, w := range b.workers {
		w.Stop()
	}
	for _, d := range b.done {
		select {
		case <-d:
		case <-time.After(10 * time.Second):
		}
	}
	b.jt.Stop()
}

// engine returns an Engine whose every task attempt runs on a worker.
func (b *backend) engine(c *cluster.Cluster, fs *dfs.FileSystem) *mapreduce.Engine {
	return mapreduce.NewEngine(c, fs, mapreduce.Options{Executor: b.jt.Executor()})
}

// readOutputBytes snapshots an output directory as path → raw bytes.
func readOutputBytes(t *testing.T, fs *dfs.FileSystem, dir string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for _, p := range fs.List(dir) {
		data, err := fs.ReadAll(p)
		if err != nil {
			t.Fatalf("read %s: %v", p, err)
		}
		out[p] = data
	}
	if len(out) == 0 {
		t.Fatalf("no output files under %s", dir)
	}
	return out
}

func assertSameOutput(t *testing.T, want, got map[string][]byte) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("output file count: in-process %d, rpc %d", len(want), len(got))
	}
	for p, w := range want {
		g, ok := got[p]
		if !ok {
			t.Fatalf("rpc output missing %s", p)
		}
		if !bytes.Equal(w, g) {
			t.Errorf("%s differs: in-process %d bytes, rpc %d bytes", p, len(w), len(g))
		}
	}
}

// seedWordInput writes deterministic multi-chunk text input.
func seedWordInput(t *testing.T, fs *dfs.FileSystem, lines int) {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&sb, "alpha bravo charlie%d delta echo foxtrot golf hotel india juliet\n", i%7)
	}
	if err := fs.Create("in/text", []byte(sb.String()), ""); err != nil {
		t.Fatal(err)
	}
}

// runBoth runs the same job on a fresh in-process topology and on a
// fresh RPC-backed topology (identical input), returning both results
// and both output snapshots.
func runBoth(t *testing.T, job func() *mapreduce.Job, seed func(t *testing.T, fs *dfs.FileSystem), o backendOpts) (local, remote *mapreduce.Result, localOut, remoteOut map[string][]byte, b *backend) {
	t.Helper()
	chunk := int64(256)

	cA, fsA := newTopology(t, chunk)
	seed(t, fsA)
	engA := mapreduce.NewEngine(cA, fsA, mapreduce.Options{})
	jobA := job()
	resA, err := engA.Run(jobA)
	if err != nil {
		t.Fatalf("in-process run: %v", err)
	}

	cB, fsB := newTopology(t, chunk)
	seed(t, fsB)
	b = startBackend(t, cB, fsB, o)
	jobB := job()
	resB, err := b.engine(cB, fsB).Run(jobB)
	if err != nil {
		t.Fatalf("rpc run: %v", err)
	}
	return resA, resB, readOutputBytes(t, fsA, jobA.OutputPath), readOutputBytes(t, fsB, jobB.OutputPath), b
}

func TestRPCBackendMatchesInProcess(t *testing.T) {
	local, remote, localOut, remoteOut, _ := runBoth(t,
		func() *mapreduce.Job { return wordCountJob(true) },
		func(t *testing.T, fs *dfs.FileSystem) { seedWordInput(t, fs, 60) },
		backendOpts{})
	assertSameOutput(t, localOut, remoteOut)
	if local.MapTasks != remote.MapTasks || local.ReduceTasks != remote.ReduceTasks {
		t.Fatalf("task counts differ: in-process %d/%d, rpc %d/%d",
			local.MapTasks, local.ReduceTasks, remote.MapTasks, remote.ReduceTasks)
	}
	// User counters cross the wire and merge winner-only; with no
	// faults they match the in-process totals exactly.
	lw := local.Counters.Value("rpctest", "words")
	rw := remote.Counters.Value("rpctest", "words")
	if lw == 0 || lw != rw {
		t.Fatalf("user counter words: in-process %d, rpc %d", lw, rw)
	}
}

func TestRPCBackendMapOnly(t *testing.T) {
	job := func() *mapreduce.Job {
		tj := upperKind
		tj.Name, tj.InputPaths, tj.OutputPath = "rpc-upper", []string{"in"}, "out"
		return tj.Build()
	}
	_, _, localOut, remoteOut, _ := runBoth(t, job,
		func(t *testing.T, fs *dfs.FileSystem) { seedWordInput(t, fs, 40) },
		backendOpts{})
	assertSameOutput(t, localOut, remoteOut)
}

func TestRPCBackendWithSpillBudget(t *testing.T) {
	// A tiny explicit budget forces multi-run spills on both backends;
	// the merged output must still be identical.
	job := func() *mapreduce.Job {
		j := wordCountJob(true)
		j.MaxShuffleBytes = 128
		return j
	}
	_, remote, localOut, remoteOut, _ := runBoth(t, job,
		func(t *testing.T, fs *dfs.FileSystem) { seedWordInput(t, fs, 60) },
		backendOpts{})
	assertSameOutput(t, localOut, remoteOut)
	if n := remote.Counters.Value(mapreduce.CounterGroupShuffle, mapreduce.CounterShuffleSpillFiles); n == 0 {
		t.Fatal("rpc run spilled no files despite a 128-byte budget")
	}
}

func TestRPCBackendUnregisteredKindFailsAtSubmit(t *testing.T) {
	c, fs := newTopology(t, 256)
	seedWordInput(t, fs, 5)
	b := startBackend(t, c, fs, backendOpts{})
	j := wordCountJob(false)
	j.Kind = "rpctest/never-registered"
	if _, err := b.engine(c, fs).Run(j); err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("err = %v, want kind-not-registered at submission", err)
	}
}
