package trace

import (
	"encoding/json"
	"fmt"
	"sort"
)

// ChromeEvent is the subset of the Chrome trace_event schema the
// exporter emits: "X" complete events (ts + dur, microseconds) and "M"
// metadata events (process_name / thread_name). The subset loads in
// Perfetto and chrome://tracing.
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  *int64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace is the JSON-object trace container format.
type ChromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Thread-ID layout of the export: tid 0 is the control lane (pipeline,
// job and phase spans, which nest by time containment), node attempt
// lanes follow from tid 1, and remote-worker execution lanes (clock-
// corrected worker-side task windows) start at execTidBase.
const (
	controlTid  = 0
	execTidBase = 2000
)

// EncodeChrome renders the tree as Chrome trace_event JSON. The output
// is deterministic for a given tree: events are emitted in a fixed
// walk order and json.Marshal sorts the args maps.
func EncodeChrome(t *Tree) ([]byte, error) {
	ct := BuildChrome(t)
	return json.MarshalIndent(ct, "", " ")
}

// BuildChrome assembles the event list without serialising, for tests
// and callers that want to post-process.
func BuildChrome(t *Tree) *ChromeTrace {
	ct := &ChromeTrace{DisplayTimeUnit: "ms"}
	meta := func(name string, tid int, args map[string]any) {
		ct.TraceEvents = append(ct.TraceEvents, ChromeEvent{
			Name: name, Ph: "M", Pid: 1, Tid: tid, Args: args,
		})
	}
	complete := func(name, cat string, tid int, startUs, durUs int64, args map[string]any) {
		if durUs < 0 {
			durUs = 0
		}
		d := durUs
		ct.TraceEvents = append(ct.TraceEvents, ChromeEvent{
			Name: name, Cat: cat, Ph: "X", Ts: startUs, Dur: &d,
			Pid: 1, Tid: tid, Args: args,
		})
	}

	meta("process_name", controlTid, map[string]any{"name": t.Root.Name})
	meta("thread_name", controlTid, map[string]any{"name": "control"})

	// Lane-pack attempts per node so concurrent attempts on one node
	// (multiple task slots) get separate, stable thread IDs.
	type lane struct {
		node string
		idx  int
		end  int64
	}
	var lanes []*lane
	laneTid := make(map[*lane]int)
	nodeLanes := make(map[string][]*lane)

	var attempts []*Span
	t.Root.Walk(func(s *Span) {
		if s.Kind == KindAttempt {
			attempts = append(attempts, s)
		}
	})
	sort.SliceStable(attempts, func(i, j int) bool {
		if attempts[i].StartUs != attempts[j].StartUs {
			return attempts[i].StartUs < attempts[j].StartUs
		}
		return attempts[i].Name < attempts[j].Name
	})
	attemptLane := make(map[*Span]*lane)
	for _, a := range attempts {
		var l *lane
		for _, cand := range nodeLanes[a.Node] {
			if cand.end <= a.StartUs {
				l = cand
				break
			}
		}
		if l == nil {
			l = &lane{node: a.Node, idx: len(nodeLanes[a.Node])}
			nodeLanes[a.Node] = append(nodeLanes[a.Node], l)
			lanes = append(lanes, l)
		}
		l.end = a.EndUs
		attemptLane[a] = l
	}
	// Stable tid assignment: nodes sorted, lanes in creation order.
	var nodes []string
	for n := range nodeLanes {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	tid := 1
	for _, n := range nodes {
		for _, l := range nodeLanes[n] {
			laneTid[l] = tid
			name := l.node
			if l.idx > 0 {
				name = fmt.Sprintf("%s #%d", l.node, l.idx+1)
			}
			meta("thread_name", tid, map[string]any{"name": name})
			tid++
		}
	}

	// Remote-worker execution lanes: exec spans (clock-corrected
	// worker-side task windows) lane-packed per node from execTidBase,
	// so the aligned worker timelines sit under the driver's view.
	var execs []*Span
	t.Root.Walk(func(s *Span) {
		if s.Kind == KindExec {
			execs = append(execs, s)
		}
	})
	sort.SliceStable(execs, func(i, j int) bool {
		if execs[i].StartUs != execs[j].StartUs {
			return execs[i].StartUs < execs[j].StartUs
		}
		return execs[i].Name < execs[j].Name
	})
	execLanes := make(map[string][]*lane)
	execLane := make(map[*Span]*lane)
	for _, s := range execs {
		var l *lane
		for _, cand := range execLanes[s.Node] {
			if cand.end <= s.StartUs {
				l = cand
				break
			}
		}
		if l == nil {
			l = &lane{node: s.Node, idx: len(execLanes[s.Node])}
			execLanes[s.Node] = append(execLanes[s.Node], l)
		}
		l.end = s.EndUs
		execLane[s] = l
	}
	var execNodes []string
	for n := range execLanes {
		execNodes = append(execNodes, n)
	}
	sort.Strings(execNodes)
	execTid := execTidBase
	for _, n := range execNodes {
		for _, l := range execLanes[n] {
			laneTid[l] = execTid
			name := fmt.Sprintf("%s (worker)", l.node)
			if l.idx > 0 {
				name = fmt.Sprintf("%s (worker) #%d", l.node, l.idx+1)
			}
			meta("thread_name", execTid, map[string]any{"name": name})
			execTid++
		}
	}

	// Walk the tree: control spans on tid 0, attempts on node lanes.
	t.Root.Walk(func(s *Span) {
		args := map[string]any{"status": s.Status}
		if s.Detail != "" {
			args["detail"] = s.Detail
		}
		if s.Error != "" {
			args["error"] = s.Error
		}
		switch s.Kind {
		case KindPipeline, KindJob:
			complete(s.Name, s.Kind, controlTid, s.StartUs, s.DurUs(), args)
		case KindPhase:
			if s.Value > 0 {
				args["bytes"] = s.Value
			}
			complete(s.Name, s.Kind, controlTid, s.StartUs, s.DurUs(), args)
		case KindAttempt:
			args["attempt"] = s.Attempt
			if s.Locality != "" {
				args["locality"] = s.Locality
			}
			if s.Backup {
				args["backup"] = true
			}
			name := fmt.Sprintf("%s/%d", s.Name, s.Attempt)
			complete(name, s.Kind, laneTid[attemptLane[s]], s.StartUs, s.DurUs(), args)
		case KindRPC:
			// Nested inside the attempt on the same lane: assign→complete
			// as seen from the driver, contained in the attempt span.
			st, dur := clampSpan(s)
			complete(fmt.Sprintf("rpc %s/%d", s.Name, s.Attempt), s.Kind,
				laneTid[attemptLane[parentAttempt(attempts, s)]], st, dur, args)
		case KindExec:
			st, dur := clampSpan(s)
			complete(fmt.Sprintf("exec %s/%d", s.Name, s.Attempt), s.Kind,
				laneTid[execLane[s]], st, dur, args)
		}
	})
	return ct
}

// clampSpan bounds a sub-attempt span at the tree origin: imperfect
// clock correction can push a worker-side window slightly before the
// root anchor, which DecodeChrome rejects as a negative timestamp.
func clampSpan(s *Span) (startUs, durUs int64) {
	startUs = s.StartUs
	end := s.EndUs
	if startUs < 0 {
		startUs = 0
	}
	if end < startUs {
		end = startUs
	}
	return startUs, end - startUs
}

// parentAttempt finds the attempt span owning a sub-attempt child.
func parentAttempt(attempts []*Span, child *Span) *Span {
	for _, a := range attempts {
		for _, c := range a.Children {
			if c == child {
				return a
			}
		}
	}
	return nil
}

// DecodeChrome parses Chrome trace_event JSON back into the schema
// subset and validates it: only "X" and "M" phases, non-negative
// timestamps, a duration on every complete event and a name on every
// event. It is the round-trip check that the export stays loadable.
func DecodeChrome(data []byte) (*ChromeTrace, error) {
	var ct ChromeTrace
	if err := json.Unmarshal(data, &ct); err != nil {
		return nil, fmt.Errorf("trace: decoding chrome trace: %v", err)
	}
	for i, e := range ct.TraceEvents {
		switch e.Ph {
		case "X":
			if e.Dur == nil {
				return nil, fmt.Errorf("trace: event %d (%q): complete event without dur", i, e.Name)
			}
			if *e.Dur < 0 || e.Ts < 0 {
				return nil, fmt.Errorf("trace: event %d (%q): negative ts/dur", i, e.Name)
			}
		case "M":
			if e.Args["name"] == nil {
				return nil, fmt.Errorf("trace: event %d: metadata event without args.name", i)
			}
		default:
			return nil, fmt.Errorf("trace: event %d (%q): unsupported phase %q", i, e.Name, e.Ph)
		}
		if e.Name == "" {
			return nil, fmt.Errorf("trace: event %d: empty name", i)
		}
	}
	return &ct, nil
}
