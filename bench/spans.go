package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one benchmark-side interval: recorded around a call into a
// layer, or rebuilt after the call from what it returned. Spans stay in
// memory and are written once, at exit, as Chrome trace_event JSON.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Name     string `json:"name"`
	Cat      string `json:"cat"`
	Workload string `json:"workload"`
	// Lane is the trace row: "driver" for benchmark and pipeline spans,
	// the executing node for task attempts.
	Lane    string `json:"lane"`
	StartUs int64  `json:"start_us"` // Unix microseconds
	EndUs   int64  `json:"end_us"`
}

// spanLog collects spans of one workload. A nil log records nothing, so
// untraced runs share the call sites.
type spanLog struct {
	workload string
	spans    []span
}

// begin opens a span and returns its ID; end closes it.
func (l *spanLog) begin(parent int, cat, name string) int {
	if l == nil {
		return 0
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name, Cat: cat, Workload: l.workload,
		Lane: "driver", StartUs: time.Now().UnixMicro(),
	})
	return id
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	l.spans[id-1].EndUs = time.Now().UnixMicro()
}

// add records a finished interval (a job or task attempt rebuilt from a
// returned Result) and returns its ID.
func (l *spanLog) add(parent int, cat, name, lane string, start time.Time, dur time.Duration) int {
	if l == nil {
		return 0
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name, Cat: cat, Workload: l.workload, Lane: lane,
		StartUs: start.UnixMicro(), EndUs: start.Add(dur).UnixMicro(),
	})
	return id
}

// addJobs rebuilds one span per job and per winning task attempt under
// parent. What is left of the parent's interval is the driver.
func (l *spanLog) addJobs(parent int, jobs []jobStat) {
	if l == nil {
		return
	}
	for _, j := range jobs {
		jid := l.add(parent, "job", j.Name, "driver", j.Start, j.Wall)
		for _, t := range j.Tasks {
			l.add(jid, t.Phase, j.Name+"/"+t.ID, t.Node, j.Start.Add(t.Start), t.Dur)
		}
	}
}

// chromeEvent is one trace_event record: complete events (ph "X") for
// spans, metadata events (ph "M") naming processes and threads.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  *int64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace lays spans out one process per workload and one thread
// per lane, with timestamps relative to the earliest span.
func chromeTrace(spans []span) []chromeEvent {
	if len(spans) == 0 {
		return nil
	}
	t0 := spans[0].StartUs
	pids := map[string]int{}
	tids := map[string]map[string]int{}
	for _, s := range spans {
		if s.StartUs < t0 {
			t0 = s.StartUs
		}
		if _, ok := pids[s.Workload]; !ok {
			pids[s.Workload] = len(pids) + 1
			tids[s.Workload] = map[string]int{"driver": 0}
		}
	}
	// Node lanes are numbered in name order so the layout is stable.
	for w, lanes := range tids {
		var names []string
		for _, s := range spans {
			if s.Workload == w && s.Lane != "driver" {
				if _, ok := lanes[s.Lane]; !ok {
					lanes[s.Lane] = -1
					names = append(names, s.Lane)
				}
			}
		}
		sort.Strings(names)
		for i, n := range names {
			lanes[n] = i + 1
		}
	}
	var events []chromeEvent
	for w, pid := range pids {
		events = append(events, chromeEvent{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": w}})
		for lane, tid := range tids[w] {
			events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": lane}})
		}
	}
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.Pid != b.Pid {
			return a.Pid < b.Pid
		}
		if a.Tid != b.Tid {
			return a.Tid < b.Tid
		}
		return a.Name < b.Name
	})
	for _, s := range spans {
		dur := s.EndUs - s.StartUs
		if dur < 0 {
			dur = 0
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X", Ts: s.StartUs - t0, Dur: &dur,
			Pid: pids[s.Workload], Tid: tids[s.Workload][s.Lane],
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "workload": s.Workload},
		})
	}
	return events
}

func writeChromeTrace(path string, spans []span) error {
	data, err := json.Marshal(map[string]any{"traceEvents": chromeTrace(spans), "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
