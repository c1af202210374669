package trace

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
)

// timelineWidth is the column count of a timeline's time axis.
const timelineWidth = 72

// writeTimeline draws a per-node swimlane of every task attempt in a
// job span, making stragglers, retries and speculative execution
// visible at a glance:
//
//	job sampling — 2 map / 0 reduce tasks, wall 12ms
//	time: 0 ............................................................ 12ms
//	node-1 | [=====map-0000/0======]
//	node-1 |          [~~map-0001/1~~]
//	node-2 |    [==map-0001/0===]
//	legend: = succeeded   x failed   ~ speculative loser (killed)   [label] = task-attempt
//
// Attempts that overlap in time on one node stack onto extra lanes.
func writeTimeline(w io.Writer, job *Span) {
	var attempts []*Span
	tasks := map[string]map[string]bool{} // phase → task names
	for _, phase := range job.Children {
		for _, a := range phase.Children {
			if a.Kind != KindAttempt {
				continue
			}
			if tasks[phase.Name] == nil {
				tasks[phase.Name] = map[string]bool{}
			}
			tasks[phase.Name][a.Name] = true
			attempts = append(attempts, a)
		}
	}
	fmt.Fprintf(w, "job %s — %d map / %d reduce tasks, wall %s\n",
		job.Name, len(tasks["map"]), len(tasks["reduce"]), usDur(job.DurUs()))
	if len(attempts) == 0 {
		fmt.Fprintln(w, "(no attempt records)")
		return
	}

	// Time scale: job start (column 0) to the last attempt end.
	span := int64(1)
	for _, a := range attempts {
		span = max(span, a.EndUs-job.StartUs)
	}
	col := func(us int64) int {
		return min(max(int((us-job.StartUs)*(timelineWidth-1)/span), 0), timelineWidth-1)
	}
	end := usDur(span)
	fmt.Fprintf(w, "time: 0 %s %s\n", strings.Repeat(".", max(0, timelineWidth-len(end)-3)), end)

	nodes, lanes := packLanes(attempts)
	nodeW := 0
	for _, n := range nodes {
		nodeW = max(nodeW, len(n))
	}
	for _, n := range nodes {
		for _, lane := range lanes[n] {
			row := bytes.Repeat([]byte{' '}, timelineWidth)
			for _, a := range lane {
				drawBar(row, col(a.StartUs), col(a.EndUs), a)
			}
			fmt.Fprintf(w, "%-*s | %s\n", nodeW, n, bytes.TrimRight(row, " "))
		}
	}
	fmt.Fprintln(w, "legend: = succeeded   x failed   ~ speculative loser (killed)   [label] = task-attempt")
}

// drawBar paints one attempt as "[==map-0003/0==]" between the given
// columns, degrading gracefully when the bar is too narrow for its
// label or brackets.
func drawBar(row []byte, lo, hi int, a *Span) {
	fill := byte('=')
	switch a.Status {
	case StatusFailed:
		fill = 'x'
	case StatusKilled:
		fill = '~'
	}
	hi = min(max(hi, lo+1), len(row))
	for i := lo; i < hi; i++ {
		row[i] = fill
	}
	if hi-lo >= 2 {
		row[lo] = '['
		row[hi-1] = ']'
	}
	label := fmt.Sprintf("%s/%d", a.Name, a.Attempt)
	if inner := hi - lo - 2; inner >= len(label) {
		copy(row[lo+1+(inner-len(label))/2:], label)
	}
}

// packLanes orders spans by start and stacks each node's overlapping
// spans onto extra lanes: a span takes the first lane of its node that
// is free by its start. It returns the nodes sorted and each node's
// lanes in creation order, the timeline's rows and the Chrome export's
// threads alike.
func packLanes(spans []*Span) ([]string, map[string][][]*Span) {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].StartUs != spans[j].StartUs {
			return spans[i].StartUs < spans[j].StartUs
		}
		return spans[i].Name < spans[j].Name
	})
	lanes := make(map[string][][]*Span)
	for _, s := range spans {
		ls := lanes[s.Node]
		i := 0
		for i < len(ls) && ls[i][len(ls[i])-1].EndUs > s.StartUs {
			i++
		}
		if i == len(ls) {
			ls = append(ls, nil)
		}
		ls[i] = append(ls[i], s)
		lanes[s.Node] = ls
	}
	nodes := make([]string, 0, len(lanes))
	for n := range lanes {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	return nodes, lanes
}
