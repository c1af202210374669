package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric backed by an atomic.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta (negative deltas are ignored —
// counters only go up).
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.v.Add(delta)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down, backed by an atomic.
// The runtime sampler uses gauges for heap size, goroutine count and
// GC state.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta (either direction).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefBuckets are the default histogram bucket upper bounds, in seconds
// (matching the Prometheus client default ladder).
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Histogram counts observations into cumulative-style buckets and
// tracks their sum, rendering in Prometheus histogram form.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds; +Inf implicit
	counts []uint64  // len(bounds)+1, last is the +Inf bucket
	sum    float64
	count  uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	idx := len(h.bounds)
	for i, b := range h.bounds {
		if v <= b {
			idx = i
			break
		}
	}
	h.counts[idx]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// snapshot returns cumulative bucket counts, sum and count.
func (h *Histogram) snapshot() (cum []uint64, sum float64, count uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum = make([]uint64, len(h.counts))
	var running uint64
	for i, c := range h.counts {
		running += c
		cum[i] = running
	}
	return cum, h.sum, h.count
}

// Labels are metric dimensions, e.g. {"phase": "map"}.
type Labels map[string]string

// series is one (name, labels) time series.
type series struct {
	labels  Labels
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// family groups all series of one metric name.
type family struct {
	name   string
	help   string
	typ    string // "counter" | "gauge" | "histogram"
	series map[string]*series
	order  []string
}

// Registry holds counters and histograms and renders them as
// Prometheus text format or a JSON-friendly snapshot. All methods are
// safe for concurrent use; instrument lookups are cheap enough for
// per-task (not per-record) call sites.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) familyLocked(name, help, typ string) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	return f
}

// labelKey serialises labels deterministically.
func labelKey(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", k, labels[k])
	}
	return sb.String()
}

// Counter returns the counter for name+labels, registering it on first
// use. help is only recorded the first time a name is seen.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, "counter")
	key := labelKey(labels)
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: cloneLabels(labels), counter: &Counter{}}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s.counter
}

// Gauge returns the gauge for name+labels, registering it on first
// use. help is only recorded the first time a name is seen.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, "gauge")
	key := labelKey(labels)
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: cloneLabels(labels), gauge: &Gauge{}}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s.gauge
}

// Histogram returns the histogram for name+labels, registering it with
// the given bucket bounds on first use (nil means DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, "histogram")
	key := labelKey(labels)
	s, ok := f.series[key]
	if !ok {
		if buckets == nil {
			buckets = DefBuckets
		}
		h := &Histogram{
			bounds: append([]float64(nil), buckets...),
			counts: make([]uint64, len(buckets)+1),
		}
		s = &series{labels: cloneLabels(labels), hist: h}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s.hist
}

func cloneLabels(l Labels) Labels {
	out := make(Labels, len(l))
	for k, v := range l {
		out[k] = v
	}
	return out
}

// promLabels renders `{k="v",...}` (empty string for no labels),
// optionally appending an extra le label for histogram buckets.
func promLabels(labels Labels, le string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if le != "" {
		keys = append(keys, "le")
	}
	if len(keys) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		v := labels[k]
		if k == "le" && le != "" {
			v = le
		}
		fmt.Fprintf(&sb, "%s=%q", k, v)
	}
	sb.WriteByte('}')
	return sb.String()
}

// WritePrometheus renders every metric in the Prometheus text
// exposition format, deterministically ordered.
func (r *Registry) WritePrometheus(w io.Writer) {
	// Hold the lock across the whole walk: instrument lookups mutate
	// f.series/f.order concurrently, and the per-series value reads are
	// atomic so nothing below blocks on another lock.
	r.mu.Lock()
	defer r.mu.Unlock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		keys := append([]string(nil), f.order...)
		sort.Strings(keys)
		for _, key := range keys {
			s := f.series[key]
			switch {
			case s.counter != nil:
				fmt.Fprintf(w, "%s%s %d\n", f.name, promLabels(s.labels, ""), s.counter.Value())
			case s.gauge != nil:
				fmt.Fprintf(w, "%s%s %d\n", f.name, promLabels(s.labels, ""), s.gauge.Value())
			case s.hist != nil:
				cum, sum, count := s.hist.snapshot()
				for i, b := range s.hist.bounds {
					fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, promLabels(s.labels, formatBound(b)), cum[i])
				}
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, promLabels(s.labels, "+Inf"), cum[len(cum)-1])
				fmt.Fprintf(w, "%s_sum%s %g\n", f.name, promLabels(s.labels, ""), sum)
				fmt.Fprintf(w, "%s_count%s %d\n", f.name, promLabels(s.labels, ""), count)
			}
		}
	}
}

func formatBound(b float64) string {
	if math.IsInf(b, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%g", b)
}

// MetricPoint is one series in a JSON snapshot. It is also the wire
// unit of metrics federation: workers ship their whole registry as a
// []MetricPoint on each heartbeat and the jobtracker re-renders the
// merged set, so a point must carry everything needed to reproduce the
// Prometheus exposition (including histogram buckets).
type MetricPoint struct {
	Name   string            `json:"name"`
	Type   string            `json:"type"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value,omitempty"`
	// FValue carries non-integer gauge values (heartbeat ages in
	// seconds) for points synthesized outside a Registry;
	// rendering prefers it over Value when non-zero.
	FValue  float64       `json:"fvalue,omitempty"`
	Count   uint64        `json:"count,omitempty"`
	Sum     float64       `json:"sum,omitempty"`
	Buckets []BucketPoint `json:"buckets,omitempty"`
}

// BucketPoint is one cumulative histogram bucket in a MetricPoint.
type BucketPoint struct {
	// Le is the bucket's inclusive upper bound; +Inf for the last.
	Le float64 `json:"-"`
	// Cum is the cumulative observation count at this bound.
	Cum uint64 `json:"cum"`
}

// bucketPointJSON carries Le as a string ("+Inf" for the last bucket),
// because JSON has no infinity literal.
type bucketPointJSON struct {
	Le  string `json:"le"`
	Cum uint64 `json:"cum"`
}

// MarshalJSON implements json.Marshaler.
func (b BucketPoint) MarshalJSON() ([]byte, error) {
	return json.Marshal(bucketPointJSON{Le: formatBound(b.Le), Cum: b.Cum})
}

// UnmarshalJSON implements json.Unmarshaler.
func (b *BucketPoint) UnmarshalJSON(data []byte) error {
	var aux bucketPointJSON
	if err := json.Unmarshal(data, &aux); err != nil {
		return err
	}
	if aux.Le == "+Inf" {
		b.Le = math.Inf(1)
	} else {
		v, err := strconv.ParseFloat(aux.Le, 64)
		if err != nil {
			return fmt.Errorf("obs: bucket bound %q: %v", aux.Le, err)
		}
		b.Le = v
	}
	b.Cum = aux.Cum
	return nil
}

// Snapshot returns every series as a flat, deterministic list for JSON
// serialization.
func (r *Registry) Snapshot() []MetricPoint {
	// Locked for the whole walk, same as WritePrometheus: the family
	// maps grow under concurrent instrument registration.
	r.mu.Lock()
	defer r.mu.Unlock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	var out []MetricPoint
	for _, f := range fams {
		keys := append([]string(nil), f.order...)
		sort.Strings(keys)
		for _, key := range keys {
			s := f.series[key]
			p := MetricPoint{Name: f.name, Type: f.typ, Labels: s.labels}
			switch {
			case s.counter != nil:
				p.Value = s.counter.Value()
			case s.gauge != nil:
				p.Value = s.gauge.Value()
			case s.hist != nil:
				cum, sum, count := s.hist.snapshot()
				p.Count, p.Sum = count, sum
				p.Buckets = make([]BucketPoint, 0, len(cum))
				for i, b := range s.hist.bounds {
					p.Buckets = append(p.Buckets, BucketPoint{Le: b, Cum: cum[i]})
				}
				p.Buckets = append(p.Buckets, BucketPoint{Le: math.Inf(1), Cum: cum[len(cum)-1]})
			}
			out = append(out, p)
		}
	}
	return out
}

// WriteMetricPoints renders an already-snapshotted point list in the
// Prometheus text exposition format. It is the federation renderer:
// the jobtracker merges its own registry snapshot, synthesized cluster
// points and every worker's federated snapshot into one list, and this
// writes them as one exposition where same-named families from
// different sources (distinguished by a worker label) share a single
// TYPE block. Points are sorted by name then label set; HELP lines are
// omitted because a merged list has no single authoritative source.
func WriteMetricPoints(w io.Writer, points []MetricPoint) {
	sorted := append([]MetricPoint(nil), points...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Name != sorted[j].Name {
			return sorted[i].Name < sorted[j].Name
		}
		return labelKey(sorted[i].Labels) < labelKey(sorted[j].Labels)
	})
	prev := ""
	for _, p := range sorted {
		if p.Name != prev {
			typ := p.Type
			if typ == "" {
				typ = "untyped"
			}
			fmt.Fprintf(w, "# TYPE %s %s\n", p.Name, typ)
			prev = p.Name
		}
		switch p.Type {
		case "histogram":
			for _, b := range p.Buckets {
				fmt.Fprintf(w, "%s_bucket%s %d\n", p.Name, promLabels(p.Labels, formatBound(b.Le)), b.Cum)
			}
			fmt.Fprintf(w, "%s_sum%s %g\n", p.Name, promLabels(p.Labels, ""), p.Sum)
			fmt.Fprintf(w, "%s_count%s %d\n", p.Name, promLabels(p.Labels, ""), p.Count)
		default:
			if p.FValue != 0 {
				fmt.Fprintf(w, "%s%s %g\n", p.Name, promLabels(p.Labels, ""), p.FValue)
			} else {
				fmt.Fprintf(w, "%s%s %d\n", p.Name, promLabels(p.Labels, ""), p.Value)
			}
		}
	}
}

// MetricsSink subscribes a Registry to the event bus, deriving the
// engine's core metrics from lifecycle events: task durations and
// status counts per phase, attempts-per-task, locality mix, shuffle
// bytes, speculative kills, and job durations.
type MetricsSink struct {
	reg *Registry
}

// NewMetricsSink wires a registry to be fed from bus events.
func NewMetricsSink(reg *Registry) *MetricsSink {
	return &MetricsSink{reg: reg}
}

// Registry returns the underlying registry.
func (m *MetricsSink) Registry() *Registry { return m.reg }

// attemptBuckets ladder 1..8 attempts per task.
var attemptBuckets = []float64{1, 2, 3, 4, 5, 8}

// Emit implements Sink.
func (m *MetricsSink) Emit(e Event) {
	switch e.Type {
	case JobSubmitted:
		m.reg.Counter("mr_jobs_submitted_total", "MapReduce jobs submitted to the engine.", nil).Inc()
	case JobFinished:
		status := "succeeded"
		if e.Err != "" {
			status = "failed"
		}
		m.reg.Counter("mr_jobs_finished_total", "MapReduce jobs finished, by status.", Labels{"status": status}).Inc()
		m.reg.Histogram("mr_job_duration_seconds", "Wall time of finished jobs.", nil, nil).Observe(e.Dur.Seconds())
	case PhaseStart:
		// The reduce phase opens with the shuffle's per-partition
		// distribution, the skew signal: a hot reduce key shows up as
		// one partition label dominating both series.
		var bytes int64
		for _, p := range e.Parts {
			part := Labels{"partition": strconv.Itoa(p.Part)}
			m.reg.Counter("shuffle_partition_records", "Records merged into each reduce partition.", part).Add(p.Records)
			m.reg.Counter("shuffle_partition_bytes", "Bytes merged into each reduce partition.", part).Add(p.Bytes)
			bytes += p.Bytes
		}
		if bytes > 0 {
			m.reg.Counter("mr_shuffle_bytes_total", "Intermediate bytes moved by the shuffle.", nil).Add(bytes)
		}
	case PhaseEnd:
		m.reg.Histogram("mr_phase_duration_seconds", "Wall time per job phase.", nil, Labels{"phase": e.Phase}).Observe(e.Dur.Seconds())
	case AttemptStarted:
		m.reg.Counter("mr_task_attempts_scheduled_total", "Task attempts assigned to node slots.", Labels{"phase": e.Phase}).Inc()
	case AttemptSucceeded:
		m.reg.Counter("mr_task_attempts_total", "Terminal task attempts, by phase and status.", Labels{"phase": e.Phase, "status": "succeeded"}).Inc()
		m.reg.Histogram("mr_task_duration_seconds", "Run time of winning task attempts.", nil, Labels{"phase": e.Phase}).Observe(e.Dur.Seconds())
		m.reg.Histogram("mr_attempts_per_task", "Attempts used per completed task.", attemptBuckets, nil).Observe(float64(e.Value))
		if e.Locality != "" {
			m.reg.Counter("mr_task_locality_total", "Winning map attempts by data locality.", Labels{"locality": e.Locality}).Inc()
		}
	case AttemptFailed:
		m.reg.Counter("mr_task_attempts_total", "Terminal task attempts, by phase and status.", Labels{"phase": e.Phase, "status": "failed"}).Inc()
	case AttemptKilled:
		m.reg.Counter("mr_task_attempts_total", "Terminal task attempts, by phase and status.", Labels{"phase": e.Phase, "status": "killed"}).Inc()
		m.reg.Counter("mr_speculative_killed_total", "Speculative attempts abandoned after losing the race.", nil).Inc()
	case WorkerJoined:
		m.reg.Counter("cluster_workers_joined_total", "Out-of-process workers registered at the jobtracker.", nil).Inc()
	case WorkerLost:
		m.reg.Counter("cluster_workers_lost_total", "Workers declared lost by the jobtracker, by reason.", Labels{"reason": e.Err}).Inc()
	case RPCRoundTrip:
		status := "succeeded"
		if e.Err != "" {
			status = "failed"
		}
		m.reg.Counter("cluster_worker_tasks_total", "Task attempts executed on remote workers, by worker and status.", Labels{"worker": e.Node, "status": status}).Inc()
		m.reg.Histogram("rpc_attempt_roundtrip_seconds", "Driver-observed assign→complete round trip of remote task attempts.", nil, nil).Observe(e.Dur.Seconds())
	}
}
