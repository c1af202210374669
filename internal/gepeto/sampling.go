package gepeto

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/recordio"
	"repro/internal/trace"
)

// SamplingTechnique selects which trace represents a time window
// (paper §V, Figures 2 and 3).
type SamplingTechnique int

const (
	// SampleUpperLimit keeps the trace closest to the upper limit of
	// the time window (Fig. 2).
	SampleUpperLimit SamplingTechnique = iota
	// SampleMiddle keeps the trace closest to the middle of the time
	// window (Fig. 3).
	SampleMiddle
)

// String returns the technique's canonical CLI name.
func (s SamplingTechnique) String() string {
	if s == SampleMiddle {
		return "middle"
	}
	return "upper"
}

// ParseSamplingTechnique parses "upper" or "middle".
func ParseSamplingTechnique(name string) (SamplingTechnique, error) {
	switch name {
	case "upper", "upper-limit":
		return SampleUpperLimit, nil
	case "middle", "center":
		return SampleMiddle, nil
	}
	return 0, fmt.Errorf("gepeto: unknown sampling technique %q", name)
}

// Conf keys consumed by the sampling mapper.
const (
	confSamplingWindow    = "sampling.window.seconds"
	confSamplingTechnique = "sampling.technique"
)

// SamplingJob builds the map-only down-sampling job of §V: mobility
// traces within each (user, time-window) pair are summarised by a
// single representative trace. The user supplies the window size and
// technique, and the input and output folders, exactly the runtime
// arguments the paper lists. The job is typed over trace records: its
// input codec reads text uploads and binary part files alike, and its
// output is binary recordio records keyed by user.
func SamplingJob(name string, inputPaths []string, outputPath string, window time.Duration, tech SamplingTechnique) *mapreduce.Job {
	return BuildTraceFilter(samplingKind, name, inputPaths, outputPath, map[string]string{
		confSamplingWindow:    strconv.Itoa(int(window.Seconds())),
		confSamplingTechnique: tech.String(),
	})
}

var samplingKind = DeclareTraceFilter("gepeto/sampling", func() TraceMapper { return &samplingMapper{} })

// TraceFilterJob is the common shape of the map-only trace→trace jobs
// (sampling, speed filter, dedup, the sanitizers): text-or-binary
// trace records in, binary trace records keyed by user out.
type TraceFilterJob = mapreduce.TypedJob[string, trace.Trace, string, trace.Trace, string, trace.Trace]

// TraceMapper is the mapper of a TraceFilterJob.
type TraceMapper = mapreduce.TypedMapper[string, trace.Trace, string, trace.Trace]

// DeclareTraceFilter declares one trace-filter job family (see
// mapreduce.Declare); the families differ only in name and mapper.
func DeclareTraceFilter(kind string, mapper func() TraceMapper) TraceFilterJob {
	return mapreduce.Declare(TraceFilterJob{
		Kind:       kind,
		Mapper:     mapper,
		InputKey:   recordio.RawString{},
		InputValue: recordio.TraceValue{},
		MapKey:     recordio.RawString{},
		MapValue:   recordio.TraceValue{},
	})
}

// BuildTraceFilter fills a copy of the family's template with one
// run's data and lowers it.
func BuildTraceFilter(tj TraceFilterJob, name string, inputPaths []string, outputPath string, conf map[string]string) *mapreduce.Job {
	tj.Name, tj.InputPaths, tj.OutputPath, tj.Conf = name, inputPaths, outputPath, conf
	return tj.Build()
}

// samplingMapper implements the paper's sampling as a pure map phase
// ("the reduce phase is not necessary as sampling represents a
// computationally cheap operation and can be performed in a single
// pass"). For each time window it generates a reference instant —
// the end or the middle of the window depending on the technique —
// compares each trace read from the chunk against it, and outputs only
// the trace closest to the reference.
type samplingMapper struct {
	mapreduce.TypedMapperBase[string, trace.Trace]

	window int64
	tech   SamplingTechnique
	// Per-user window state. GeoLife-style chunks hold one user's
	// traces in chronological order, but interleaved users are
	// handled too.
	state map[string]*windowState
}

type windowState struct {
	window   int64 // current window index
	best     trace.Trace
	bestDist float64 // |time - reference| in seconds
}

func (m *samplingMapper) Setup(ctx *mapreduce.TaskContext) error {
	w, err := strconv.ParseInt(ctx.ConfDefault(confSamplingWindow, "60"), 10, 64)
	if err != nil || w <= 0 {
		return fmt.Errorf("samplingMapper: bad %s: %v", confSamplingWindow, err)
	}
	m.window = w
	m.tech, err = ParseSamplingTechnique(ctx.ConfDefault(confSamplingTechnique, "upper"))
	if err != nil {
		return err
	}
	m.state = make(map[string]*windowState)
	return nil
}

// reference returns the reference instant of the window containing
// unix time ts.
func (m *samplingMapper) reference(window int64) float64 {
	start := float64(window * m.window)
	if m.tech == SampleMiddle {
		return start + float64(m.window)/2
	}
	return start + float64(m.window) // upper limit
}

func (m *samplingMapper) Map(ctx *mapreduce.TaskContext, _ string, t trace.Trace, emit mapreduce.TypedEmit[string, trace.Trace]) error {
	w := t.Time.Unix() / m.window
	st, ok := m.state[t.User]
	if !ok {
		st = &windowState{window: w, bestDist: math.Inf(1)}
		m.state[t.User] = st
	}
	if w != st.window {
		// Window closed: flush its representative.
		emit(st.best.User, st.best)
		ctx.Counter("sampling", "windows").Inc(1)
		st.window = w
		st.bestDist = math.Inf(1)
	}
	if d := math.Abs(float64(t.Time.Unix()) - m.reference(w)); d < st.bestDist {
		st.best, st.bestDist = t, d
	}
	return nil
}

func (m *samplingMapper) Cleanup(ctx *mapreduce.TaskContext, emit mapreduce.TypedEmit[string, trace.Trace]) error {
	// Emit in sorted user order, not map order: speculative attempts
	// must produce byte-identical output.
	users := make([]string, 0, len(m.state))
	for u := range m.state {
		users = append(users, u)
	}
	sort.Strings(users)
	for _, u := range users {
		st := m.state[u]
		if !math.IsInf(st.bestDist, 1) {
			emit(st.best.User, st.best)
			ctx.Counter("sampling", "windows").Inc(1)
		}
	}
	return nil
}

// SampleSequential is the single-machine reference implementation of
// down-sampling, used for cross-checking the MapReduce version and as
// the baseline in speed-up benchmarks. Traces in each trail must be
// chronological (as trace.Dataset guarantees).
func SampleSequential(ds *trace.Dataset, window time.Duration, tech SamplingTechnique) *trace.Dataset {
	w := int64(window.Seconds())
	if w <= 0 {
		w = 60
	}
	reference := func(win int64) float64 {
		start := float64(win * w)
		if tech == SampleMiddle {
			return start + float64(w)/2
		}
		return start + float64(w)
	}
	out := &trace.Dataset{}
	for _, tr := range ds.Trails {
		kept := trace.Trail{User: tr.User}
		cur := int64(math.MinInt64)
		var best trace.Trace
		bestDist := math.Inf(1)
		for _, t := range tr.Traces {
			win := t.Time.Unix() / w
			if win != cur {
				if !math.IsInf(bestDist, 1) {
					kept.Traces = append(kept.Traces, best)
				}
				cur = win
				bestDist = math.Inf(1)
			}
			if d := math.Abs(float64(t.Time.Unix()) - reference(win)); d < bestDist {
				best, bestDist = t, d
			}
		}
		if !math.IsInf(bestDist, 1) {
			kept.Traces = append(kept.Traces, best)
		}
		out.Trails = append(out.Trails, kept)
	}
	return out
}
