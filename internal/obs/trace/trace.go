// Package trace assembles the obs event stream into causal span trees
// — pipeline span → job → phase → task attempt, with per-partition
// merge detail. The span tree is the one model of a run: the Collector
// serves it while the run executes, the Store persists it, and the
// same tree drives the bottleneck report, the per-node attempt
// timeline and the Chrome trace_event export (viewable in Perfetto or
// chrome://tracing).
//
// On top of the assembled tree it implements the analysis passes the
// paper's evaluation (§V) performs by hand: the critical path through
// a job's attempts and barriers, straggler detection against the phase
// median, and shuffle-skew detection from the per-partition merge
// statistics (the DJ-Cluster single-reducer merge being the motivating
// hot case).
package trace

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
)

// Span kinds, outermost first. A tree nests strictly in this order
// (pipeline spans may also nest inside each other).
const (
	KindPipeline = "pipeline"
	KindJob      = "job"
	KindPhase    = "phase"
	KindAttempt  = "attempt"
	// KindRPC and KindExec nest inside attempt spans of jobs run on the
	// out-of-process backend: the driver-observed assign→complete round
	// trip and, inside it, the worker-side execution window. The
	// attempt time not covered by exec is coordination overhead.
	KindRPC  = "rpc"
	KindExec = "exec"
)

// Span statuses.
const (
	StatusRunning   = "running"
	StatusSucceeded = "succeeded"
	StatusFailed    = "failed"
	StatusKilled    = "killed" // speculative loser
)

// Span is one node of a causal trace tree. Times are microsecond
// offsets from the owning Tree's StartUnixMs anchor, so trees survive
// JSON round trips losslessly and export directly to the microsecond
// timestamps the Chrome trace_event format wants.
type Span struct {
	// Kind is pipeline, job, phase or attempt.
	Kind string `json:"kind"`
	// Name identifies the span: the span ID for pipelines, job name for
	// jobs, "map"/"reduce" for phases, task ID for attempts.
	Name string `json:"name"`
	// Attempt is the 0-based attempt number (attempt spans only).
	Attempt int `json:"attempt,omitempty"`
	// Node is the executing cluster node (attempt spans only).
	Node string `json:"node,omitempty"`
	// Locality is the placement class when known (map attempts).
	Locality string `json:"locality,omitempty"`
	// Backup marks speculative attempts.
	Backup bool `json:"backup,omitempty"`
	// Status is running, succeeded, failed or killed.
	Status string `json:"status"`
	// Error is the failure reason for failed spans.
	Error string `json:"error,omitempty"`
	// Detail is free-form context from the underlying event.
	Detail string `json:"detail,omitempty"`
	// StartUs and EndUs are microsecond offsets from Tree.StartUnixMs.
	// EndUs == StartUs for spans still open when the tree was cut.
	StartUs int64 `json:"start_us"`
	EndUs   int64 `json:"end_us"`
	// Parts is the per-reduce-partition merge summary (reduce phase
	// spans only), the input to skew analysis.
	Parts []obs.PartStat `json:"parts,omitempty"`
	// Children are the nested spans, ordered by StartUs.
	Children []*Span `json:"children,omitempty"`
}

// DurUs returns the span duration in microseconds.
func (s *Span) DurUs() int64 { return s.EndUs - s.StartUs }

// Walk visits the span and all descendants depth-first.
func (s *Span) Walk(fn func(*Span)) {
	fn(s)
	for _, c := range s.Children {
		c.Walk(fn)
	}
}

// Job returns the descendant job span with the given name, or the span
// itself if it is that job.
func (s *Span) Job(name string) *Span {
	var found *Span
	s.Walk(func(n *Span) {
		if found == nil && n.Kind == KindJob && n.Name == name {
			found = n
		}
	})
	return found
}

// Jobs returns every job span in the tree, in start order.
func (s *Span) Jobs() []*Span {
	var out []*Span
	s.Walk(func(n *Span) {
		if n.Kind == KindJob {
			out = append(out, n)
		}
	})
	sort.SliceStable(out, func(i, j int) bool { return out[i].StartUs < out[j].StartUs })
	return out
}

// Tree is one fully assembled causal trace: a root pipeline span or a
// standalone job, anchored to wall-clock time.
type Tree struct {
	// Seq orders trees within a store.
	Seq int `json:"seq"`
	// StartUnixMs anchors the tree's microsecond offsets to wall time.
	StartUnixMs int64 `json:"start_unix_ms"`
	// Root is the outermost span.
	Root *Span `json:"root"`
}

// Start returns the anchor time.
func (t *Tree) Start() time.Time { return time.UnixMilli(t.StartUnixMs) }

// WallUs returns the root span's duration in microseconds.
func (t *Tree) WallUs() int64 { return t.Root.DurUs() }

// Assemble builds causal trace trees from a recorded event stream. It
// returns one tree per root: every span or job whose Parent is empty
// or names a span absent from the stream. Events arriving out of
// causal order (a child span starting before its parent's SpanStart
// was recorded) still attach, because linking happens after a full
// pass over the stream. Spans left open are closed at the last event
// time seen in their subtree.
func Assemble(events []obs.Event) []*Tree {
	a := newAssembler()
	for _, e := range events {
		a.add(e)
	}
	return a.finish()
}

// assembler incrementally folds events into per-root trees. The
// Collector reuses it per root group; Assemble drives it in one shot.
type assembler struct {
	anchor   time.Time
	spans    map[string]*Span // open+closed pipeline spans by ID
	jobs     map[string]*Span // job spans by name
	phases   map[string]*Span // open phase spans by job+"\x00"+phase
	attempts map[string]*Span // attempt spans by job+phase+task+attempt
	order    []*Span          // root candidates in first-seen order
	parents  map[*Span]string // declared parent span ID per span/job
}

func newAssembler() *assembler {
	return &assembler{
		spans:    make(map[string]*Span),
		jobs:     make(map[string]*Span),
		phases:   make(map[string]*Span),
		attempts: make(map[string]*Span),
		parents:  make(map[*Span]string),
	}
}

// us converts an event time to the microsecond offset from the anchor,
// establishing the anchor on first use.
func (a *assembler) us(t time.Time) int64 {
	if a.anchor.IsZero() {
		a.anchor = t
	}
	return t.Sub(a.anchor).Microseconds()
}

func attemptKey(e obs.Event) string {
	return fmt.Sprintf("%s\x00%s\x00%s\x00%d", e.Job, e.Phase, e.Task, e.Attempt)
}

func (a *assembler) add(e obs.Event) {
	ts := a.us(e.Time)
	switch e.Type {
	case obs.SpanStart:
		s := &Span{Kind: KindPipeline, Name: e.Span, Status: StatusRunning,
			Detail: e.Detail, StartUs: ts, EndUs: ts}
		a.spans[e.Span] = s
		a.parents[s] = e.Parent
		a.order = append(a.order, s)
	case obs.SpanEnd:
		if s, ok := a.spans[e.Span]; ok {
			s.EndUs = ts
			s.Status = StatusSucceeded
			if e.Err != "" {
				s.Status = StatusFailed
				s.Error = e.Err
			}
		}
	case obs.JobSubmitted:
		j := &Span{Kind: KindJob, Name: e.Job, Status: StatusRunning,
			Detail: e.Detail, StartUs: ts, EndUs: ts}
		a.jobs[e.Job] = j
		a.parents[j] = e.Parent
		a.order = append(a.order, j)
	case obs.JobFinished:
		if j, ok := a.jobs[e.Job]; ok {
			j.EndUs = ts
			j.Status = StatusSucceeded
			if e.Err != "" {
				j.Status = StatusFailed
				j.Error = e.Err
			}
		}
	case obs.PhaseStart:
		j := a.job(e.Job, ts)
		p := &Span{Kind: KindPhase, Name: e.Phase, Status: StatusRunning,
			Detail: e.Detail, StartUs: ts, EndUs: ts}
		if len(e.Parts) > 0 {
			p.Parts = append([]obs.PartStat(nil), e.Parts...)
		}
		a.phases[e.Job+"\x00"+e.Phase] = p
		j.Children = append(j.Children, p)
	case obs.PhaseEnd:
		p, ok := a.phases[e.Job+"\x00"+e.Phase]
		if !ok {
			p = &Span{Kind: KindPhase, Name: e.Phase, StartUs: ts}
			j := a.job(e.Job, ts)
			j.Children = append(j.Children, p)
		}
		p.EndUs = ts
		p.Status = StatusSucceeded
		if e.Err != "" {
			p.Status = StatusFailed
			p.Error = e.Err
		}
	case obs.AttemptStarted:
		s := &Span{Kind: KindAttempt, Name: e.Task, Attempt: e.Attempt,
			Node: e.Node, Locality: e.Locality, Backup: e.Backup,
			Status: StatusRunning, StartUs: ts, EndUs: ts}
		a.attempts[attemptKey(e)] = s
		p := a.phase(e.Job, e.Phase, ts)
		p.Children = append(p.Children, s)
	case obs.AttemptSucceeded, obs.AttemptFailed, obs.AttemptKilled:
		s, ok := a.attempts[attemptKey(e)]
		if !ok {
			s = &Span{Kind: KindAttempt, Name: e.Task, Attempt: e.Attempt,
				Node: e.Node, Locality: e.Locality, Backup: e.Backup,
				StartUs: ts - e.Dur.Microseconds()}
			a.attempts[attemptKey(e)] = s
			p := a.phase(e.Job, e.Phase, ts)
			p.Children = append(p.Children, s)
		}
		s.EndUs = ts
		if e.Locality != "" {
			s.Locality = e.Locality
		}
		s.Backup = s.Backup || e.Backup
		switch e.Type {
		case obs.AttemptSucceeded:
			s.Status = StatusSucceeded
		case obs.AttemptFailed:
			s.Status = StatusFailed
			s.Error = e.Err
		case obs.AttemptKilled:
			s.Status = StatusKilled
		}
	case obs.RPCRoundTrip:
		// The one report of a remote attempt: the round trip and the
		// worker-measured run time (Value, ns) both end at ts, so the
		// rpc span is [ts−Dur, ts] and the exec span [ts−Value, ts]
		// nested in it. The attempt span is synthesised if the report
		// arrives before any attempt event (in practice AttemptStarted
		// precedes it and the terminal event follows).
		if e.Job == "" {
			return
		}
		s, ok := a.attempts[attemptKey(e)]
		if !ok {
			s = &Span{Kind: KindAttempt, Name: e.Task, Attempt: e.Attempt,
				Node: e.Node, Status: StatusRunning,
				StartUs: ts - e.Dur.Microseconds(), EndUs: ts}
			a.attempts[attemptKey(e)] = s
			p := a.phase(e.Job, e.Phase, ts)
			p.Children = append(p.Children, s)
		}
		status := StatusSucceeded
		if e.Err != "" {
			status = StatusFailed
		}
		child := func(kind string, dur time.Duration) *Span {
			return &Span{Kind: kind, Name: e.Task, Attempt: e.Attempt, Node: e.Node,
				Status: status, Error: e.Err, StartUs: ts - dur.Microseconds(), EndUs: ts}
		}
		s.Children = append(s.Children, child(KindRPC, e.Dur), child(KindExec, time.Duration(e.Value)))
	}
}

// job returns the job span, synthesising one for phase/attempt events
// of a job whose JobSubmitted fell outside the stream.
func (a *assembler) job(name string, ts int64) *Span {
	if j, ok := a.jobs[name]; ok {
		return j
	}
	j := &Span{Kind: KindJob, Name: name, Status: StatusRunning, StartUs: ts, EndUs: ts}
	a.jobs[name] = j
	a.parents[j] = ""
	a.order = append(a.order, j)
	return j
}

// phase returns the open phase span, synthesising one if its
// PhaseStart fell outside the stream.
func (a *assembler) phase(jobName, phase string, ts int64) *Span {
	key := jobName + "\x00" + phase
	if p, ok := a.phases[key]; ok {
		return p
	}
	j := a.job(jobName, ts)
	p := &Span{Kind: KindPhase, Name: phase, Status: StatusRunning, StartUs: ts, EndUs: ts}
	a.phases[key] = p
	j.Children = append(j.Children, p)
	return p
}

// finish links children to parents, closes open spans at the latest
// time seen beneath them, sorts children and returns the roots.
func (a *assembler) finish() []*Tree {
	var roots []*Span
	for _, s := range a.order {
		parent := a.parents[s]
		if p, ok := a.spans[parent]; ok && parent != "" && p != s {
			p.Children = append(p.Children, s)
		} else {
			roots = append(roots, s)
		}
	}
	var trees []*Tree
	for _, r := range roots {
		closeOpen(r)
		sortSpans(r)
		// Re-anchor the tree on its own root so offsets start at zero.
		base := r.StartUs
		r.Walk(func(s *Span) {
			s.StartUs -= base
			s.EndUs -= base
		})
		trees = append(trees, &Tree{
			StartUnixMs: a.anchor.Add(time.Duration(base) * time.Microsecond).UnixMilli(),
			Root:        r,
		})
	}
	return trees
}

// closeOpen extends still-running spans to cover their subtree: a span
// cut mid-flight ends at the last event time observed beneath it.
func closeOpen(s *Span) int64 {
	end := s.EndUs
	for _, c := range s.Children {
		if ce := closeOpen(c); ce > end {
			end = ce
		}
	}
	if s.Status == StatusRunning || s.Status == "" {
		s.EndUs = end
	}
	return s.EndUs
}

func sortSpans(s *Span) {
	sort.SliceStable(s.Children, func(i, j int) bool {
		if s.Children[i].StartUs != s.Children[j].StartUs {
			return s.Children[i].StartUs < s.Children[j].StartUs
		}
		return s.Children[i].Name < s.Children[j].Name
	})
	for _, c := range s.Children {
		sortSpans(c)
	}
}
