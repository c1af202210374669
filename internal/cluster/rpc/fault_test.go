// Fault drills over the Unreliable transport and the cluster kill
// hook: every scenario asserts the job completes AND that its output
// is byte-identical to an untouched in-process run — faults may cost
// retries and wall time, never correctness.
package rpc_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/rpc"
	"repro/internal/dfs"
	"repro/internal/mapreduce"
)

// slowSeed writes enough input that, with 256-byte chunks and a
// per-task sleep, mid-run faults reliably land while the job is in
// flight.
func slowSeed(t *testing.T, fs *dfs.FileSystem) { seedWordInput(t, fs, 60) }

func TestWorkerKillMidRun(t *testing.T) {
	chunk := int64(256)
	cA, fsA := newTopology(t, chunk)
	slowSeed(t, fsA)
	jobA := wordCountJob(true)
	if _, err := mapreduce.NewEngine(cA, fsA, mapreduce.Options{}).Run(jobA); err != nil {
		t.Fatal(err)
	}
	localOut := readOutputBytes(t, fsA, jobA.OutputPath)

	cB, fsB := newTopology(t, chunk)
	slowSeed(t, fsB)
	b := startBackend(t, cB, fsB, backendOpts{taskOverhead: 25 * time.Millisecond})
	// Kill one node mid-run: the kill hook declares its worker lost,
	// every attempt placed there errors, and the scheduler retries on
	// the survivors.
	timer := time.AfterFunc(40*time.Millisecond, func() { cB.Kill("node-01") })
	defer timer.Stop()
	jobB := wordCountJob(true)
	res, err := b.engine(cB, fsB).Run(jobB)
	if err != nil {
		t.Fatalf("rpc run with mid-run worker kill: %v", err)
	}
	remoteOut := readOutputBytes(t, fsB, jobB.OutputPath)
	assertSameOutput(t, localOut, remoteOut)

	workers := b.jt.Workers()
	for _, id := range workers {
		if id == "node-01" {
			t.Fatalf("killed worker still registered: %v", workers)
		}
	}
	if len(res.Attempts) <= len(res.Tasks) {
		t.Logf("note: kill landed after the run finished (%d attempts, %d tasks)", len(res.Attempts), len(res.Tasks))
	}
}

func TestHeartbeatTimeoutMidRun(t *testing.T) {
	chunk := int64(256)
	cA, fsA := newTopology(t, chunk)
	slowSeed(t, fsA)
	jobA := wordCountJob(true)
	jobA.NumReducers = 6
	if _, err := mapreduce.NewEngine(cA, fsA, mapreduce.Options{}).Run(jobA); err != nil {
		t.Fatal(err)
	}
	localOut := readOutputBytes(t, fsA, jobA.OutputPath)

	// node-02's worker gets its own Unreliable so a partition can cut
	// exactly its view of the jobtracker: heartbeats, completions and
	// DFS traffic all fail, and only the grace timeout can notice.
	var cut *rpc.Unreliable
	cB, fsB := newTopology(t, chunk)
	slowSeed(t, fsB)
	b := startBackend(t, cB, fsB, backendOpts{
		taskOverhead: 30 * time.Millisecond,
		heartbeat:    40 * time.Millisecond,
		grace:        300 * time.Millisecond,
		workerTransport: func(node string, inner rpc.Transport) rpc.Transport {
			if node != "node-02" {
				return inner
			}
			cut = rpc.NewUnreliable(inner, 42)
			return cut
		},
	})
	timer := time.AfterFunc(60*time.Millisecond, func() { cut.Partition(jtAddr, true) })
	defer timer.Stop()

	jobB := wordCountJob(true)
	jobB.NumReducers = 6
	if _, err := b.engine(cB, fsB).Run(jobB); err != nil {
		t.Fatalf("rpc run with partitioned worker: %v", err)
	}
	remoteOut := readOutputBytes(t, fsB, jobB.OutputPath)
	assertSameOutput(t, localOut, remoteOut)

	for _, id := range b.jt.Workers() {
		if id == "node-02" {
			t.Fatal("partitioned worker still registered after heartbeat grace")
		}
	}
	if cB.IsAlive("node-02") {
		t.Fatal("heartbeat monitor did not kill the silent worker's node")
	}
}

func TestDuplicateCompletionsAreIdempotent(t *testing.T) {
	// Duplicate EVERY worker→jobtracker delivery: completions land
	// twice, and the second copy must be acked without a second commit.
	_, _, localOut, remoteOut, b := runBoth(t,
		func() *mapreduce.Job { return wordCountJob(true) },
		slowSeed,
		backendOpts{
			workerTransport: func(node string, inner rpc.Transport) rpc.Transport {
				u := rpc.NewUnreliable(inner, 7)
				u.Duplicate(1.0)
				return u
			},
		})
	assertSameOutput(t, localOut, remoteOut)
	if n := b.jt.DupCompletions(); n == 0 {
		t.Fatal("expected duplicate completions to be absorbed, counter is 0")
	}
}

func TestFaultMixStillByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("lossy-network soak")
	}
	// Drops, duplicates and delays on BOTH directions at once, seeded.
	// MaxAttempts is raised: a dropped assignment burns an attempt, and
	// correctness under faults is the claim here, not attempt frugality.
	job := func() *mapreduce.Job {
		j := wordCountJob(true)
		j.MaxAttempts = 10
		return j
	}
	lossy := func(seed int64) func(inner rpc.Transport) rpc.Transport {
		return func(inner rpc.Transport) rpc.Transport {
			u := rpc.NewUnreliable(inner, seed)
			u.DropRequests(0.03)
			u.DropReplies(0.03)
			u.Duplicate(0.05)
			u.Delay(2 * time.Millisecond)
			return u
		}
	}
	mix := backendOpts{
		jtTransport: lossy(1),
		workerTransport: func(node string, inner rpc.Transport) rpc.Transport {
			return lossy(int64(len(node)) + int64(node[len(node)-1]))(inner)
		},
	}
	_, _, localOut, remoteOut, _ := runBoth(t, job, slowSeed, mix)
	assertSameOutput(t, localOut, remoteOut)
	// The same network under a six-job pipeline whose jobs keep the
	// default three attempts.
	assertSameOutcome(t, runPipeline(t, attackPOI, nil),
		runPipeline(t, attackPOI, onRPCBackend(t, mix)).withoutScratch())
}

// TestWorkerKillMidPipeline loses a tasktracker while the POI attack's
// jobs are in flight: later jobs run on the two survivors, and nothing
// any job committed may differ from the in-process run.
func TestWorkerKillMidPipeline(t *testing.T) {
	got := runPipeline(t, attackPOI, func(c *cluster.Cluster, fs *dfs.FileSystem) mapreduce.Executor {
		b := startBackend(t, c, fs, backendOpts{taskOverhead: 25 * time.Millisecond})
		timer := time.AfterFunc(200*time.Millisecond, func() { c.Kill("node-01") })
		t.Cleanup(func() { timer.Stop() })
		return b.jt.Executor()
	})
	assertSameOutcome(t, runPipeline(t, attackPOI, nil), got.withoutScratch())
}

func TestRegisterRejectsUnknownNode(t *testing.T) {
	c, fs := newTopology(t, 256)
	n := rpc.NewMemNetwork()
	jt := rpc.NewJobtracker(rpc.JobtrackerConfig{Cluster: c, FS: fs, Transport: n})
	defer jt.Stop()
	n.Bind(jtAddr, jt.Server())
	w := rpc.NewWorker(rpc.WorkerConfig{
		Node: "node-99", Slots: 2, Transport: n, JobtrackerAddr: jtAddr, Addr: "worker:node-99",
	})
	n.Bind("worker:node-99", w.Server())
	err := w.Run()
	if err == nil || !strings.Contains(err.Error(), "unknown cluster node") {
		t.Fatalf("err = %v, want unknown-node registration failure", err)
	}
}
