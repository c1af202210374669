// Observability-plane tests: client/server RPC telemetry staying sane
// under an unreliable fabric, the heartbeat metrics federation applying
// snapshots exactly once under duplicated and reordered deliveries, and
// each remote attempt's one report placing its worker-side exec span
// inside the driver's view of the attempt. CI runs this package with
// -race -count=2.
package rpc_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster/rpc"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	obstrace "repro/internal/obs/trace"
)

// EchoArgs/EchoReply are the drill payloads (exported fields for gob).
type EchoArgs struct{ Payload []byte }
type EchoReply struct{ Payload []byte }

// metricValue finds one point by name and label subset; missing → 0.
func metricValue(points []obs.MetricPoint, name string, labels map[string]string) int64 {
	for _, p := range points {
		if p.Name != name {
			continue
		}
		match := true
		for k, v := range labels {
			if p.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return p.Value
		}
	}
	return 0
}

// metricCount returns a histogram point's observation count.
func metricCount(points []obs.MetricPoint, name string, labels map[string]string) uint64 {
	for _, p := range points {
		if p.Name != name {
			continue
		}
		match := true
		for k, v := range labels {
			if p.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return p.Count
		}
	}
	return 0
}

// metricSum adds every point of a name matching the label subset.
func metricSum(points []obs.MetricPoint, name string, labels map[string]string) int64 {
	var total int64
	for _, p := range points {
		if p.Name != name {
			continue
		}
		match := true
		for k, v := range labels {
			if p.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			total += p.Value
		}
	}
	return total
}

// TestRPCTelemetryUnderFaults hammers an instrumented transport through
// an Unreliable wrapper with concurrent callers and checks the counters
// add up exactly: every call lands in exactly one status bucket, the
// server-side tally equals deliveries (calls − dropped requests +
// duplicates), and the in-flight gauge returns to zero.
func TestRPCTelemetryUnderFaults(t *testing.T) {
	srv := rpc.NewServer()
	rpc.Handle(srv, "test.echo", func(a *EchoArgs) (*EchoReply, error) {
		return &EchoReply{Payload: a.Payload}, nil
	})
	rpc.Handle(srv, "test.fail", func(a *EchoArgs) (*EchoReply, error) {
		return nil, fmt.Errorf("handler says no")
	})
	serverReg := obs.NewRegistry()
	srv.Instrument(serverReg)
	n := rpc.NewMemNetwork()
	n.Bind("svc", srv)

	u := rpc.NewUnreliable(n, 42)
	u.DropRequests(0.3)
	u.Duplicate(0.3)
	clientReg := obs.NewRegistry()
	tr := rpc.Instrument(u, clientReg)

	const callers, each = 8, 50
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			payload := []byte(strings.Repeat("x", 100+id))
			for i := 0; i < each; i++ {
				var reply EchoReply
				_ = tr.Call("svc", "test.echo", &EchoArgs{Payload: payload}, &reply)
			}
		}(c)
	}
	wg.Wait()

	const total = callers * each
	droppedReq, _, duplicated := u.Stats()
	cp := clientReg.Snapshot()
	okN := metricValue(cp, "rpc_client_calls_total", map[string]string{"method": "test.echo", "status": "ok"})
	transportN := metricValue(cp, "rpc_client_calls_total", map[string]string{"method": "test.echo", "status": "transport"})
	errorN := metricValue(cp, "rpc_client_calls_total", map[string]string{"method": "test.echo", "status": "error"})
	if okN+transportN+errorN != total {
		t.Fatalf("client statuses ok=%d transport=%d error=%d, sum != %d calls", okN, transportN, errorN, total)
	}
	if transportN != droppedReq {
		t.Errorf("transport-status calls = %d, dropped requests = %d", transportN, droppedReq)
	}
	if errorN != 0 {
		t.Errorf("error-status calls = %d on an always-ok handler", errorN)
	}
	if v := metricValue(cp, "rpc_client_in_flight", nil); v != 0 {
		t.Errorf("rpc_client_in_flight = %d after all calls returned", v)
	}
	if c := metricCount(cp, "rpc_client_latency_seconds", map[string]string{"method": "test.echo"}); c != total {
		t.Errorf("client latency observations = %d, want %d", c, total)
	}

	sp := serverReg.Snapshot()
	handled := metricValue(sp, "rpc_server_handled_total", map[string]string{"method": "test.echo", "status": "ok"})
	wantHandled := int64(total) - droppedReq + duplicated
	if handled != wantHandled {
		t.Fatalf("server handled %d, want %d (= %d calls - %d dropped + %d duplicated)",
			handled, wantHandled, total, droppedReq, duplicated)
	}
	if c := metricCount(sp, "rpc_server_request_bytes", map[string]string{"method": "test.echo"}); int64(c) != wantHandled {
		t.Errorf("request-size observations = %d, want %d", c, wantHandled)
	}
	if c := metricCount(sp, "rpc_server_reply_bytes", map[string]string{"method": "test.echo"}); int64(c) != wantHandled {
		t.Errorf("reply-size observations = %d, want %d", c, wantHandled)
	}

	// Handler errors (not transport faults) land in the "error" bucket
	// on both sides; the reply-size histogram records successes only.
	clean := rpc.Instrument(n, clientReg)
	for i := 0; i < 7; i++ {
		var reply EchoReply
		if err := clean.Call("svc", "test.fail", &EchoArgs{}, &reply); err == nil || rpc.IsTransportError(err) {
			t.Fatalf("test.fail: err = %v, want a non-transport handler error", err)
		}
	}
	cp = clientReg.Snapshot()
	if v := metricValue(cp, "rpc_client_calls_total", map[string]string{"method": "test.fail", "status": "error"}); v != 7 {
		t.Errorf("client error-status calls = %d, want 7", v)
	}
	sp = serverReg.Snapshot()
	if v := metricValue(sp, "rpc_server_handled_total", map[string]string{"method": "test.fail", "status": "error"}); v != 7 {
		t.Errorf("server error-status handled = %d, want 7", v)
	}
	if c := metricCount(sp, "rpc_server_reply_bytes", map[string]string{"method": "test.fail"}); c != 0 {
		t.Errorf("reply sizes recorded for failed handlers: %d", c)
	}
}

// TestFederationApplySemantics drills the (epoch, seq) acceptance rule:
// duplicates and reordered deliveries are dropped and counted, a higher
// seq in the same epoch wins, and a new epoch (worker restart)
// supersedes any seq of the old incarnation.
func TestFederationApplySemantics(t *testing.T) {
	pts := func(v int64) []obs.MetricPoint {
		return []obs.MetricPoint{{
			Name: "worker_tasks_total", Type: "counter",
			Labels: map[string]string{"status": "succeeded"}, Value: v,
		}}
	}
	f := rpc.NewFederation()
	if f.Apply("", 1, 1, pts(1)) {
		t.Fatal("accepted a snapshot without a worker ID")
	}
	steps := []struct {
		epoch int64
		seq   uint64
		v     int64
		want  bool
	}{
		{100, 1, 5, true},
		{100, 1, 5, false}, // duplicated heartbeat
		{100, 0, 3, false}, // reordered (older seq)
		{100, 2, 7, true},
		{99, 9, 9, false}, // older epoch, any seq
		{101, 1, 2, true}, // restart: fresh epoch supersedes
	}
	for i, s := range steps {
		if got := f.Apply("w1", s.epoch, s.seq, pts(s.v)); got != s.want {
			t.Fatalf("step %d (epoch=%d seq=%d): accepted=%v, want %v", i, s.epoch, s.seq, got, s.want)
		}
	}
	if d := f.StaleDrops(); d != 3 {
		t.Errorf("stale drops = %d, want 3", d)
	}
	if !f.Apply("w2", 50, 1, pts(4)) {
		t.Fatal("fresh worker snapshot rejected")
	}
	if got := fmt.Sprint(f.Workers()); got != "[w1 w2]" {
		t.Errorf("workers = %s", got)
	}

	snap := f.Snapshot()
	if v := metricValue(snap, "worker_tasks_total", map[string]string{"worker": "w1"}); v != 2 {
		t.Errorf("w1 federated value = %d, want 2 (last accepted write)", v)
	}
	if v := metricValue(snap, "worker_tasks_total", map[string]string{"worker": "w2"}); v != 4 {
		t.Errorf("w2 federated value = %d, want 4", v)
	}
	if v := metricValue(snap, "worker_tasks_total", map[string]string{"worker": "all"}); v != 6 {
		t.Errorf("aggregate value = %d, want 6", v)
	}
}

// TestMetricsFederationUnderUnreliableHeartbeats is the end-to-end
// exactly-once drill: every worker's uplink duplicates 100% of its
// calls and drops a fifth of the replies, a real job runs through, and
// the jobtracker's federated view must still converge to each worker's
// true counters — never double-counted by the duplicated heartbeats —
// with the busy-slot gauge settling back to the last written value (0)
// and the duplicate deliveries visible as stale drops.
func TestMetricsFederationUnderUnreliableHeartbeats(t *testing.T) {
	c, fs := newTopology(t, 256)
	seedWordInput(t, fs, 60)
	var mu sync.Mutex
	unrel := make(map[string]*rpc.Unreliable)
	b := startBackend(t, c, fs, backendOpts{
		heartbeat: 20 * time.Millisecond,
		workerTransport: func(node string, inner rpc.Transport) rpc.Transport {
			u := rpc.NewUnreliable(inner, int64(len(unrel))*31+11)
			u.Duplicate(1.0)
			u.DropReplies(0.2)
			mu.Lock()
			unrel[node] = u
			mu.Unlock()
			return u
		},
	})
	if _, err := b.engine(c, fs).Run(wordCountJob(true)); err != nil {
		t.Fatalf("job under duplicated heartbeats: %v", err)
	}

	// The federated view trails the workers by up to one beat; poll
	// until it matches each worker's ground truth exactly.
	fed := b.jt.Federation()
	nodes := c.Nodes()
	deadline := time.Now().Add(10 * time.Second)
	for {
		converged := true
		var lag string
		for i, w := range b.workers {
			pts := fed.Worker(nodes[i].ID)
			tasks := metricSum(pts, "worker_tasks_total", nil)
			busy := metricValue(pts, "worker_busy_slots", nil)
			if tasks != w.TasksRun() || busy != 0 {
				converged = false
				lag = fmt.Sprintf("%s: federated tasks=%d busy=%d, worker ran %d",
					nodes[i].ID, tasks, busy, w.TasksRun())
				break
			}
		}
		if converged {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("federation never converged: %s", lag)
		}
		time.Sleep(25 * time.Millisecond)
	}

	var totalRun int64
	for _, w := range b.workers {
		totalRun += w.TasksRun()
	}
	snap := fed.Snapshot()
	if agg := metricSum(snap, "worker_tasks_total", map[string]string{"worker": "all"}); agg != totalRun {
		t.Errorf("aggregate worker_tasks_total = %d, want %d", agg, totalRun)
	}
	if drops := fed.StaleDrops(); drops == 0 {
		t.Error("no stale drops despite 100% duplicated heartbeats")
	}

	// The jobtracker's merged snapshot carries all three planes: its
	// own RPC telemetry, synthesized cluster gauges, federated series.
	merged := b.jt.MetricsSnapshot()
	if v := metricSum(merged, "rpc_server_handled_total", map[string]string{"method": "jt.heartbeat", "status": "ok"}); v == 0 {
		t.Error("merged snapshot missing jobtracker-side rpc_server_handled_total")
	}
	if v := metricValue(merged, "cluster_workers", nil); v != int64(len(nodes)) {
		t.Errorf("cluster_workers = %d, want %d", v, len(nodes))
	}
	if v := metricSum(merged, "worker_tasks_total", map[string]string{"worker": "all"}); v != totalRun {
		t.Errorf("merged federated aggregate = %d, want %d", v, totalRun)
	}
}

// runTraced runs the wordcount job on a backend whose jobtracker and
// engine share one bus feeding a trace collector, and returns the
// job's finished tree.
func runTraced(t *testing.T, o backendOpts) (*obstrace.Tree, *backend) {
	t.Helper()
	c, fs := newTopology(t, 256)
	seedWordInput(t, fs, 60)
	collector := obstrace.NewCollector(nil, 0)
	reg := obs.NewRegistry()
	bus := obs.NewBus(obs.NewMetricsSink(reg), collector)
	o.heartbeat = 20 * time.Millisecond
	o.jtConfig = func(cfg *rpc.JobtrackerConfig) {
		cfg.Obs = bus
		cfg.Registry = reg
	}
	b := startBackend(t, c, fs, o)
	eng := mapreduce.NewEngine(c, fs, mapreduce.Options{Executor: b.jt.Executor(), Obs: bus})
	if _, err := eng.Run(wordCountJob(true)); err != nil {
		t.Fatalf("job: %v", err)
	}
	trees := collector.Finished()
	if len(trees) == 0 {
		t.Fatal("collector finished no trees")
	}
	return trees[len(trees)-1], b
}

// subSpans returns an attempt span's rpc and exec children.
func subSpans(a *obstrace.Span) (rpcs, execs []*obstrace.Span) {
	for _, c := range a.Children {
		switch c.Kind {
		case obstrace.KindRPC:
			rpcs = append(rpcs, c)
		case obstrace.KindExec:
			execs = append(execs, c)
		}
	}
	return rpcs, execs
}

// TestOneExecSpanPerRemoteAttempt runs the job with every worker's
// uplink duplicating all calls, then dropping 30% of requests: each
// succeeded attempt still reports exactly once, so it carries one rpc
// and one exec span, and the analyzer never counts more worker time
// than round-trip time.
func TestOneExecSpanPerRemoteAttempt(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault func(u *rpc.Unreliable)
	}{
		{"duplicate", func(u *rpc.Unreliable) { u.Duplicate(1.0) }},
		{"drop-requests", func(u *rpc.Unreliable) { u.DropRequests(0.3) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var seed int64
			tree, _ := runTraced(t, backendOpts{
				workerTransport: func(node string, inner rpc.Transport) rpc.Transport {
					seed++
					u := rpc.NewUnreliable(inner, seed)
					tc.fault(u)
					return u
				},
			})
			succeeded := 0
			tree.Root.Walk(func(s *obstrace.Span) {
				if s.Kind != obstrace.KindAttempt || s.Status != obstrace.StatusSucceeded {
					return
				}
				succeeded++
				if rpcs, execs := subSpans(s); len(rpcs) != 1 || len(execs) != 1 {
					t.Errorf("attempt %s/%d on %s has %d rpc and %d exec spans, want 1 and 1",
						s.Name, s.Attempt, s.Node, len(rpcs), len(execs))
				}
			})
			if succeeded == 0 {
				t.Fatal("tree has no succeeded attempts")
			}
			for _, ja := range obstrace.AnalyzeTree(tree, obstrace.Options{}).Jobs {
				if ja.RPC == nil || ja.RPC.ExecUs > ja.RPC.RPCUs {
					t.Errorf("job %s rpc report = %+v, want exec <= rpc", ja.Job, ja.RPC)
				}
			}
		})
	}
}

// TestExecSpansNestInTheirAttempts checks that every remote attempt's
// exec window lies inside its round trip, and the round trip inside
// the attempt (to a microsecond of rounding) — the exec window is
// placed on the jobtracker's clock, so no worker clock can move it —
// and that the analyzer, the Chrome export and the cluster table see
// the remote attempts.
func TestExecSpansNestInTheirAttempts(t *testing.T) {
	tree, b := runTraced(t, backendOpts{})
	const roundingUs = 1
	within := func(in, out *obstrace.Span) bool {
		return in.StartUs >= out.StartUs-roundingUs && in.EndUs <= out.EndUs+roundingUs
	}
	var remote int
	tree.Root.Walk(func(s *obstrace.Span) {
		if s.Kind != obstrace.KindAttempt {
			return
		}
		rpcs, execs := subSpans(s)
		if len(rpcs) == 0 && len(execs) == 0 {
			return
		}
		remote++
		if len(rpcs) != 1 || len(execs) != 1 {
			t.Errorf("attempt %s/%d has %d rpc and %d exec spans, want 1 and 1", s.Name, s.Attempt, len(rpcs), len(execs))
			return
		}
		r, x := rpcs[0], execs[0]
		if !within(x, r) || !within(r, s) {
			t.Errorf("attempt %s/%d on %s: exec [%d,%d] ⊆ rpc [%d,%d] ⊆ attempt [%d,%d]us does not hold",
				s.Name, s.Attempt, s.Node, x.StartUs, x.EndUs, r.StartUs, r.EndUs, s.StartUs, s.EndUs)
		}
	})
	if remote == 0 {
		t.Fatal("tree has no attempts with rpc/exec child spans")
	}

	a := obstrace.AnalyzeTree(tree, obstrace.Options{})
	if len(a.Jobs) == 0 {
		t.Fatal("analysis found no jobs")
	}
	ja := a.Jobs[0]
	if ja.RPC == nil {
		t.Fatal("analysis has no RPC overhead report despite remote attempts")
	}
	if ja.RPC.RemoteAttempts == 0 || ja.RPC.RPCUs <= 0 || ja.RPC.ExecUs <= 0 {
		t.Fatalf("rpc report = %+v, want positive attempts/rpc/exec", ja.RPC)
	}
	if ja.RPC.CoordUs < 0 || ja.RPC.PathCoordUs < 0 {
		t.Fatalf("negative coordination overhead: %+v", ja.RPC)
	}

	data, err := obstrace.EncodeChrome(tree)
	if err != nil {
		t.Fatalf("chrome export: %v", err)
	}
	if _, err := obstrace.DecodeChrome(data); err != nil {
		t.Fatalf("chrome export fails its own schema: %v", err)
	}
	out := string(data)
	for _, want := range []string{"(worker)", `"rpc `, `"exec `} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome export missing %q", want)
		}
	}

	st := b.jt.ClusterState()
	if len(st.Workers) != len(b.workers) {
		t.Fatalf("cluster state has %d workers, want %d", len(st.Workers), len(b.workers))
	}
	table := rpc.RenderClusterTable(st)
	for _, w := range st.Workers {
		if !strings.Contains(table, w.Node) {
			t.Errorf("cluster table missing %s:\n%s", w.Node, table)
		}
	}
}
