package trace

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// rpcFixtureEvents is one remote job: a single map attempt whose one
// report (RPCRoundTrip) carries the driver-observed assign→complete
// round trip and the worker-measured run time, both ending on receipt.
func rpcFixtureEvents() []obs.Event {
	mk := func(t obs.EventType, us int64, f obs.Event) obs.Event {
		f.Type = t
		f.Time = at(us)
		return f
	}
	return []obs.Event{
		mk(obs.JobSubmitted, 0, obs.Event{Job: "job-r"}),
		mk(obs.PhaseStart, 100, obs.Event{Job: "job-r", Phase: "map"}),
		mk(obs.AttemptStarted, 200, obs.Event{Job: "job-r", Phase: "map", Task: "map-0000", Node: "n1"}),
		// Driver-side round trip [250, 1000]us and worker-side execution
		// [400, 1000]us: the assign latency and the worker's queueing
		// precede the exec window, and both end when the report lands.
		mk(obs.RPCRoundTrip, 1000, obs.Event{Job: "job-r", Phase: "map", Task: "map-0000", Node: "n1",
			Dur: 750 * time.Microsecond, Value: int64(600 * time.Microsecond)}),
		mk(obs.AttemptSucceeded, 1050, obs.Event{Job: "job-r", Phase: "map", Task: "map-0000", Node: "n1"}),
		mk(obs.PhaseEnd, 1100, obs.Event{Job: "job-r", Phase: "map"}),
		mk(obs.JobFinished, 1200, obs.Event{Job: "job-r"}),
	}
}

func TestAssembleAttachesRPCAndExecSpans(t *testing.T) {
	trees := Assemble(rpcFixtureEvents())
	if len(trees) != 1 {
		t.Fatalf("trees: %d, want 1", len(trees))
	}
	job := trees[0].Root
	if job.Kind != KindJob {
		job = trees[0].Root.Job("job-r")
	}
	if job == nil {
		t.Fatal("job-r not found")
	}
	attempt := job.Children[0].Children[0]
	if attempt.Kind != KindAttempt || attempt.Name != "map-0000" {
		t.Fatalf("attempt = %s %q", attempt.Kind, attempt.Name)
	}
	var exec, rpcSpan *Span
	for _, ch := range attempt.Children {
		switch ch.Kind {
		case KindExec:
			exec = ch
		case KindRPC:
			rpcSpan = ch
		}
	}
	if exec == nil || rpcSpan == nil {
		t.Fatalf("attempt children = %+v, want one exec and one rpc span", attempt.Children)
	}
	if exec.StartUs != 400 || exec.EndUs != 1000 || exec.Node != "n1" || exec.Status != StatusSucceeded {
		t.Errorf("exec span [%d,%d] %s on %s, want [400,1000] succeeded on n1",
			exec.StartUs, exec.EndUs, exec.Status, exec.Node)
	}
	if rpcSpan.StartUs != 250 || rpcSpan.EndUs != 1000 {
		t.Errorf("rpc span [%d,%d], want [250,1000]", rpcSpan.StartUs, rpcSpan.EndUs)
	}
}

func TestAssembleDropsSubAttemptEventsWithoutJob(t *testing.T) {
	evs := rpcFixtureEvents()
	evs = append(evs[:3:3], append([]obs.Event{
		{Type: obs.RPCRoundTrip, Time: at(500), Task: "map-9999", Node: "n9", Dur: 100 * time.Microsecond},
	}, evs[3:]...)...)
	trees := Assemble(evs)
	if len(trees) != 1 {
		t.Fatalf("trees: %d, want 1", len(trees))
	}
	trees[0].Root.Walk(func(s *Span) {
		if s.Name == "map-9999" {
			t.Error("jobless worker event grew a span")
		}
	})
}

func TestChromeExportPlacesExecOnWorkerLanes(t *testing.T) {
	trees := Assemble(rpcFixtureEvents())
	ct := BuildChrome(trees[0])
	var execTid, rpcTid, attemptTid int
	laneName := map[int]string{}
	for _, e := range ct.TraceEvents {
		switch {
		case e.Ph == "M" && e.Name == "thread_name":
			laneName[e.Tid] = e.Args["name"].(string)
		case strings.HasPrefix(e.Name, "exec "):
			execTid = e.Tid
		case strings.HasPrefix(e.Name, "rpc "):
			rpcTid = e.Tid
		case e.Name == "map-0000/0":
			attemptTid = e.Tid
		}
	}
	if execTid < execTidBase {
		t.Errorf("exec event on tid %d, want >= %d", execTid, execTidBase)
	}
	if got := laneName[execTid]; got != "n1 (worker)" {
		t.Errorf("exec lane name = %q, want %q", got, "n1 (worker)")
	}
	if rpcTid != attemptTid {
		t.Errorf("rpc event on tid %d, attempt on %d — must share the lane", rpcTid, attemptTid)
	}
	data, err := EncodeChrome(trees[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeChrome(data); err != nil {
		t.Fatalf("round trip: %v", err)
	}
}

func TestAnalyzeReportsRPCOverhead(t *testing.T) {
	trees := Assemble(rpcFixtureEvents())
	a := AnalyzeTree(trees[0], Options{})
	if len(a.Jobs) != 1 {
		t.Fatalf("jobs: %d", len(a.Jobs))
	}
	r := a.Jobs[0].RPC
	if r == nil {
		t.Fatal("no RPC report")
	}
	if r.RemoteAttempts != 1 || r.RPCUs != 750 || r.ExecUs != 600 {
		t.Errorf("report = %+v, want 1 attempt, rpc 750us, exec 600us", r)
	}
	// The attempt spans [200, 1050] = 850us; 600us of it executed on
	// the worker, so 250us is assign/report coordination.
	if r.CoordUs != 250 {
		t.Errorf("coordination = %dus, want 250", r.CoordUs)
	}
	if r.PathCoordUs != 250 {
		t.Errorf("critical-path coordination = %dus, want 250 (the only attempt is on the path)", r.PathCoordUs)
	}

	// A purely local tree (no rpc/exec children) must omit the report.
	local := Assemble(fixtureEvents())
	la := AnalyzeTree(local[0], Options{})
	for _, ja := range la.Jobs {
		if ja.RPC != nil {
			t.Errorf("local job %s grew an RPC report: %+v", ja.Job, ja.RPC)
		}
	}

	var buf strings.Builder
	WriteReport(&buf, trees[0], a)
	if !strings.Contains(buf.String(), "rpc overhead:") {
		t.Errorf("report missing rpc overhead section:\n%s", buf.String())
	}
}
