// Package obs is the observability layer of the MapReduce engine: a
// structured event bus carrying typed job/phase/task/attempt lifecycle
// events, a metrics registry with Prometheus text-format exposition, a
// jobtracker-style status HTTP server, and an in-memory record of the
// most recently finished jobs. The span trees package obs/trace
// assembles from the bus are the live view and the persisted record of
// a run.
//
// The paper's entire contribution is measured — per-job wall times,
// speedup curves and phase breakdowns on Grid'5000 (§V-§VII) — and the
// cluster deployments it ran on expose exactly this through the Hadoop
// jobtracker web UI and job-history server. This package and obs/trace
// provide the equivalent measurement substrate for the simulated stack.
//
// The package deliberately imports no other internal package so every
// layer (dfs, mapreduce, gepeto, core) can depend on it without
// cycles; storage backends are supplied through the small FS interface
// that *dfs.FileSystem satisfies structurally.
package obs

import (
	"sync"
	"time"
)

// EventType enumerates the lifecycle events the engine and the
// algorithm drivers emit.
type EventType string

// Event types. Jobs contain phases, phases contain tasks, tasks are
// executed by one or more attempts; spans group jobs into pipelines
// (a k-means run, DJ-Cluster's three phases, the R-tree build).
const (
	// JobSubmitted marks a job entering the engine.
	JobSubmitted EventType = "job_submitted"
	// JobFinished marks a job leaving the engine (Err set on failure).
	JobFinished EventType = "job_finished"
	// PhaseStart/PhaseEnd bracket the map and reduce phases. Only
	// Bus.Begin emits them.
	PhaseStart EventType = "phase_start"
	PhaseEnd   EventType = "phase_end"
	// AttemptStarted marks a task attempt being placed on a node slot
	// and beginning execution.
	AttemptStarted EventType = "attempt_started"
	// AttemptSucceeded marks the winning attempt of a task.
	AttemptSucceeded EventType = "attempt_succeeded"
	// AttemptFailed marks a failed attempt (Err carries the reason).
	AttemptFailed EventType = "attempt_failed"
	// AttemptKilled marks an attempt abandoned in flight because a
	// parallel attempt of the same task won (Hadoop killing the slower
	// speculative attempt) or its phase failed. Emitted exactly once
	// per such attempt, when that is decided: before the PhaseEnd.
	AttemptKilled EventType = "attempt_killed"
	// SpanStart/SpanEnd bracket driver-level pipeline spans (k-means
	// iterations, DJ-Cluster phases, R-tree build). Only Bus.Begin
	// emits them.
	SpanStart EventType = "span_start"
	SpanEnd   EventType = "span_end"
	// WorkerJoined/WorkerLost mark out-of-process worker membership at
	// the jobtracker (registration, and loss via kill or heartbeat
	// timeout — Err carries the loss reason). Node identifies the
	// worker's cluster node; Job is empty (membership outlives jobs).
	WorkerJoined EventType = "worker_joined"
	WorkerLost   EventType = "worker_lost"
	// RPCRoundTrip is the one report of a remote task attempt, emitted
	// by the jobtracker when the worker's completion lands (Err set on
	// failure). Time is that instant on the jobtracker's clock; Dur is
	// the assign→complete round trip and Value the worker-measured run
	// time in nanoseconds, both ending at Time. Only durations cross
	// the wire, so the exec window [Time−Value, Time] sits inside the
	// round trip whatever the worker's clock reads; the attempt wall
	// outside it is the backend's coordination overhead.
	RPCRoundTrip EventType = "rpc_roundtrip"
)

// Event is one structured lifecycle event. The identity fields form a
// span hierarchy: Parent → Job → Phase → Task → Attempt, so a whole
// multi-job pipeline reconstructs as one tree.
type Event struct {
	// Type is the event kind.
	Type EventType
	// Time is the event timestamp. The bus stamps it with time.Now()
	// (monotonic-clock backed) if left zero.
	Time time.Time
	// Job names the owning job; empty for pure pipeline-span events.
	Job string
	// Parent is the enclosing span ID ("" for root jobs/spans).
	Parent string
	// Span is the span ID for SpanStart/SpanEnd events.
	Span string
	// Phase is "map" or "reduce" for phase/task events.
	Phase string
	// Task identifies the task ("map-0007") for attempt events.
	Task string
	// Attempt is the 0-based attempt number.
	Attempt int
	// Node is the executing cluster node.
	Node string
	// Locality is "data-local", "rack-local" or "off-rack" when known.
	Locality string
	// Backup marks speculative (backup) attempts.
	Backup bool
	// Dur carries a duration where meaningful (attempt run time on
	// terminal attempt events, span or phase wall on SpanEnd/PhaseEnd,
	// job wall on JobFinished).
	Dur time.Duration
	// Value carries an event-specific magnitude: on terminal attempt
	// events, the attempts the task has launched (on AttemptSucceeded,
	// TaskReport.Attempts); on RPCRoundTrip, the remote run time in
	// nanoseconds.
	Value int64
	// Err is the failure reason for AttemptFailed and for a failed
	// JobFinished, SpanEnd or PhaseEnd.
	Err string
	// Detail is free-form context ("maps=12 reducers=4").
	Detail string
	// Parts is the per-reduce-partition shuffle summary, set on the
	// reduce PhaseStart: the shuffle only plans, so the partitions are
	// known when the reduce phase opens. It is the raw material for
	// skew analysis and the shuffle byte metrics: the DJ-Cluster merge
	// funnelling everything into one reducer shows up here as one
	// partition holding all the records.
	Parts []PartStat
}

// PartStat summarises one reduce partition's share of the shuffle: how
// many pre-sorted map-output runs feed it, and the record and byte
// volume routed to it. (The merge itself streams inside the reduce
// attempt, so its time is part of that attempt's span.)
type PartStat struct {
	// Part is the 0-based reduce partition index.
	Part int `json:"part"`
	// Runs is the number of map-output runs the reduce task merges.
	Runs int64 `json:"runs"`
	// Records and Bytes are the partition's record count and byte volume.
	Records int64 `json:"records"`
	Bytes   int64 `json:"bytes"`
}

// Sink consumes events. Implementations must be safe for concurrent
// Emit calls: the engine emits from many worker goroutines.
type Sink interface {
	Emit(Event)
}

// Bus fans events out to the sinks it was built with. A nil *Bus is a
// valid, always-inactive bus: every method is a cheap no-op, which is
// the fast path the engine relies on when no observer is attached. The
// sink list never changes after NewBus, so reading it needs no lock.
type Bus struct {
	sinks []Sink
}

// NewBus creates a bus with the given sinks attached.
func NewBus(sinks ...Sink) *Bus {
	return &Bus{sinks: append([]Sink(nil), sinks...)}
}

// Active reports whether any sink is attached. Hot paths use it to
// skip event construction entirely.
func (b *Bus) Active() bool {
	return b != nil && len(b.sinks) > 0
}

// Emit delivers the event to every attached sink, stamping Time if
// unset. Safe on a nil bus.
func (b *Bus) Emit(e Event) {
	if !b.Active() {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	for _, s := range b.sinks {
		s.Emit(e)
	}
}

// Begin is the one way to open a span or a phase: it emits start as a
// PhaseStart when start.Phase is set (identity Job+Phase) and as a
// SpanStart otherwise (identity Span), overwriting any Type the caller
// set. The returned closer emits the matching PhaseEnd or SpanEnd with
// the same identity, the elapsed Dur, and the error *errp holds at
// close time (errp may be nil), and returns that duration, so
//
//	defer bus.Begin(obs.Event{Span: id, Parent: parent})(&err)
//
// closes the span on every return path. Safe on a nil bus, where the
// closer still measures: callers that keep their own wall times need
// no second clock.
func (b *Bus) Begin(start Event) func(errp *error) time.Duration {
	end := Event{Job: start.Job, Parent: start.Parent, Span: start.Span, Phase: start.Phase}
	start.Type, end.Type = SpanStart, SpanEnd
	if start.Phase != "" {
		start.Type, end.Type = PhaseStart, PhaseEnd
	}
	if start.Time.IsZero() {
		start.Time = time.Now()
	}
	b.Emit(start)
	return func(errp *error) time.Duration {
		end.Time = time.Now()
		end.Dur = end.Time.Sub(start.Time)
		if errp != nil && *errp != nil {
			end.Err = (*errp).Error()
		}
		b.Emit(end)
		return end.Dur
	}
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event)

// Emit implements Sink.
func (f SinkFunc) Emit(e Event) { f(e) }

// Recorder is a Sink that buffers every event, for tests and ad-hoc
// tracing. Safe for concurrent use.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// Emit implements Sink.
func (r *Recorder) Emit(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Events returns a copy of everything recorded so far.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// ByType returns the recorded events of one type, in arrival order.
func (r *Recorder) ByType(t EventType) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Event
	for _, e := range r.events {
		if e.Type == t {
			out = append(out, e)
		}
	}
	return out
}
