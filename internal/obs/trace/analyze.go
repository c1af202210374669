package trace

import (
	"fmt"
	"sort"

	"repro/internal/obs"
)

// Options tune the analysis passes.
type Options struct {
	// StragglerFactor flags attempts slower than this multiple of the
	// phase median attempt duration. Default 1.5.
	StragglerFactor float64
	// SkewFactor flags reduce partitions holding more than this
	// multiple of the mean partition byte/record volume. Default 2.0.
	SkewFactor float64
}

func (o Options) withDefaults() Options {
	if o.StragglerFactor <= 0 {
		o.StragglerFactor = 1.5
	}
	if o.SkewFactor <= 0 {
		o.SkewFactor = 2.0
	}
	return o
}

// PathStep is one contiguous segment of a job's critical path. Steps
// tile the interval [job start, job end] with no gaps or overlaps, so
// their durations sum exactly to the job wall-clock; Phase attributes
// each microsecond to a phase (or to "driver" for time outside any
// phase).
type PathStep struct {
	// Phase is "map", "reduce" or "driver".
	Phase string `json:"phase"`
	// Kind is "attempt" (a bounding task attempt ran), "wait" (inside
	// a phase but off any bounding attempt: slot queueing) or "driver"
	// (between phases: split computation, shuffle planning, output
	// commit).
	Kind string `json:"kind"`
	// Task/Attempt/Node identify the bounding attempt for attempt steps.
	Task    string `json:"task,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Node    string `json:"node,omitempty"`
	// StartUs/EndUs bound the segment (tree-anchored microseconds).
	StartUs int64 `json:"start_us"`
	EndUs   int64 `json:"end_us"`
}

// DurUs returns the step duration in microseconds.
func (p PathStep) DurUs() int64 { return p.EndUs - p.StartUs }

// PhaseCost is the critical-path attribution of one phase.
type PhaseCost struct {
	// Phase is the phase name ("driver" for out-of-phase time).
	Phase string `json:"phase"`
	// DurUs is the critical-path time attributed to the phase.
	DurUs int64 `json:"dur_us"`
	// Pct is DurUs as a percentage of job wall-clock.
	Pct float64 `json:"pct"`
}

// Straggler is an attempt flagged as slow relative to its phase.
type Straggler struct {
	Phase   string `json:"phase"`
	Task    string `json:"task"`
	Attempt int    `json:"attempt"`
	Node    string `json:"node"`
	// DurUs and MedianUs compare the attempt to its phase median.
	DurUs    int64 `json:"dur_us"`
	MedianUs int64 `json:"median_us"`
	// Factor is DurUs / MedianUs.
	Factor float64 `json:"factor"`
	// Speculated reports that speculative execution engaged on the
	// task: some attempt of it was killed as a losing backup.
	Speculated bool `json:"speculated"`
	// LostToBackup reports this attempt itself was the killed loser.
	LostToBackup bool `json:"lost_to_backup"`
}

// SkewReport summarises the reduce-partition distribution of one
// job's shuffle.
type SkewReport struct {
	// Partitions is the reduce partition count.
	Partitions int `json:"partitions"`
	// TotalRecords/TotalBytes sum over partitions.
	TotalRecords int64 `json:"total_records"`
	TotalBytes   int64 `json:"total_bytes"`
	// MaxPart is the hottest partition by bytes.
	MaxPart obs.PartStat `json:"max_part"`
	// Imbalance is max partition bytes over mean partition bytes
	// (1.0 = perfectly balanced). By-records when bytes are all zero.
	Imbalance float64 `json:"imbalance"`
	// Hot lists partitions exceeding SkewFactor × mean bytes (or
	// records), hottest first. A single-partition shuffle — the
	// paper's DJ-Cluster merge — is always flagged when other
	// partitions would have been available.
	Hot []obs.PartStat `json:"hot,omitempty"`
}

// RPCReport attributes remote-execution overhead for a job run on the
// out-of-process backend, from the rpc/exec sub-attempt spans. For
// each remote attempt, coordination overhead is the attempt wall not
// covered by the worker-side execution window: assignment delivery,
// queueing in the worker, and the completion report's trip back.
type RPCReport struct {
	// RemoteAttempts is how many attempts carried rpc/exec detail.
	RemoteAttempts int `json:"remote_attempts"`
	// RPCUs sums the driver-observed assign→complete round trips.
	RPCUs int64 `json:"rpc_us"`
	// ExecUs sums the worker-side execution windows.
	ExecUs int64 `json:"exec_us"`
	// CoordUs sums max(0, attempt wall − exec window) over remote
	// attempts: total coordination overhead paid across the job.
	CoordUs int64 `json:"coord_us"`
	// PathCoordUs is the coordination overhead of attempts on the
	// critical path — the share that actually cost wall-clock time —
	// and PathCoordPct is it as a percentage of the job wall.
	PathCoordUs  int64   `json:"path_coord_us"`
	PathCoordPct float64 `json:"path_coord_pct"`
}

// JobAnalysis is the full bottleneck report for one job span.
type JobAnalysis struct {
	// Job is the job name.
	Job string `json:"job"`
	// WallUs is the job wall-clock.
	WallUs int64 `json:"wall_us"`
	// Status echoes the job span status.
	Status string `json:"status"`
	// Path is the critical path: contiguous steps tiling the job wall.
	Path []PathStep `json:"path"`
	// Phases attributes the critical path per phase, job order, then
	// "driver". Durations sum exactly to WallUs.
	Phases []PhaseCost `json:"phases"`
	// Stragglers are flagged slow attempts, slowest first.
	Stragglers []Straggler `json:"stragglers,omitempty"`
	// Skew is the shuffle partition distribution, when recorded.
	Skew *SkewReport `json:"skew,omitempty"`
	// RPC attributes remote-execution overhead; nil for jobs run
	// in-process (no rpc/exec sub-attempt spans).
	RPC *RPCReport `json:"rpc,omitempty"`
}

// Analysis is the report for a whole tree.
type Analysis struct {
	// Root is the tree's root span name.
	Root string `json:"root"`
	// WallUs is the root span wall-clock.
	WallUs int64 `json:"wall_us"`
	// Jobs are the per-job analyses in start order.
	Jobs []JobAnalysis `json:"jobs"`
}

// AnalyzeTree runs every analysis pass over a tree.
func AnalyzeTree(t *Tree, opts Options) *Analysis {
	opts = opts.withDefaults()
	a := &Analysis{Root: t.Root.Name, WallUs: t.WallUs()}
	for _, j := range t.Root.Jobs() {
		a.Jobs = append(a.Jobs, analyzeJob(j, opts))
	}
	return a
}

func analyzeJob(job *Span, opts Options) JobAnalysis {
	ja := JobAnalysis{Job: job.Name, WallUs: job.DurUs(), Status: job.Status}
	ja.Path = criticalPath(job)
	ja.Phases = attribute(ja.Path, job)
	ja.Stragglers = stragglers(job, opts.StragglerFactor)
	ja.Skew = skew(job, opts.SkewFactor)
	ja.RPC = rpcOverhead(job, ja.Path)
	return ja
}

// rpcOverhead folds the rpc/exec sub-attempt spans into an RPCReport,
// or nil when the job ran in-process (no such spans).
func rpcOverhead(job *Span, path []PathStep) *RPCReport {
	r := &RPCReport{}
	coord := make(map[string]int64) // phase\x00task\x00attempt → coord µs
	found := false
	for _, phase := range job.Children {
		if phase.Kind != KindPhase {
			continue
		}
		for _, a := range phase.Children {
			if a.Kind != KindAttempt {
				continue
			}
			var execUs int64
			hasDetail := false
			for _, c := range a.Children {
				switch c.Kind {
				case KindRPC:
					r.RPCUs += c.DurUs()
					hasDetail = true
				case KindExec:
					execUs += c.DurUs()
					hasDetail = true
				}
			}
			if !hasDetail {
				continue
			}
			found = true
			r.RemoteAttempts++
			r.ExecUs += execUs
			if c := a.DurUs() - execUs; c > 0 {
				r.CoordUs += c
				coord[subKey(phase.Name, a.Name, a.Attempt)] = c
			}
		}
	}
	if !found {
		return nil
	}
	// Coordination on the critical path: attempt steps may be truncated
	// by the backwards chain, so attribute each bounding attempt's full
	// coordination overhead once (a slight over-attribution for
	// truncated steps, bounded by the truncation itself).
	counted := make(map[string]bool)
	for _, st := range path {
		if st.Kind != "attempt" {
			continue
		}
		key := subKey(st.Phase, st.Task, st.Attempt)
		if counted[key] {
			continue
		}
		counted[key] = true
		r.PathCoordUs += coord[key]
	}
	if wall := job.DurUs(); wall > 0 {
		r.PathCoordPct = 100 * float64(r.PathCoordUs) / float64(wall)
	}
	return r
}

func subKey(phase, task string, attempt int) string {
	return fmt.Sprintf("%s\x00%s\x00%d", phase, task, attempt)
}

// criticalPath builds the chain of segments that bounded the job's
// wall-clock. Each phase is a barrier: it ends when its last attempt
// finishes, so the bounding chain inside a phase
// is reconstructed backwards from the phase end — the last-finishing
// attempt, then the latest attempt finishing before it started (whose
// completion freed the slot), and so on; residual time inside the
// phase is "wait" and time between phases is "driver". The segments
// tile [job start, job end] exactly.
func criticalPath(job *Span) []PathStep {
	var steps []PathStep
	cursor := job.StartUs
	for _, phase := range job.Children {
		if phase.Kind != KindPhase {
			continue
		}
		if phase.StartUs > cursor {
			steps = append(steps, PathStep{Phase: "driver", Kind: "driver",
				StartUs: cursor, EndUs: phase.StartUs})
			cursor = phase.StartUs
		}
		steps = append(steps, phaseChain(phase)...)
		if phase.EndUs > cursor {
			cursor = phase.EndUs
		}
	}
	if job.EndUs > cursor {
		steps = append(steps, PathStep{Phase: "driver", Kind: "driver",
			StartUs: cursor, EndUs: job.EndUs})
	}
	return steps
}

// phaseChain reconstructs the bounding chain inside one phase,
// returning contiguous steps covering [phase.StartUs, phase.EndUs].
func phaseChain(phase *Span) []PathStep {
	// Completed attempts, by end time descending.
	var done []*Span
	for _, c := range phase.Children {
		if c.Kind == KindAttempt && c.Status != StatusRunning {
			done = append(done, c)
		}
	}
	sort.SliceStable(done, func(i, j int) bool { return done[i].EndUs > done[j].EndUs })

	if len(done) == 0 {
		// No attempts: a zero-task phase, or one cut before any
		// attempt finished.
		return []PathStep{{Phase: phase.Name, Kind: "wait",
			StartUs: phase.StartUs, EndUs: phase.EndUs}}
	}

	// Walk backwards from the phase end, chaining bounding attempts.
	var chain []PathStep
	t := phase.EndUs
	for t > phase.StartUs {
		// Latest-finishing attempt that started before t.
		var pick *Span
		for _, a := range done {
			if a.StartUs < t {
				pick = a
				break
			}
		}
		if pick == nil {
			break
		}
		end := pick.EndUs
		if end > t {
			end = t
		}
		if end < t {
			// Gap: nothing on the chain ran here (barrier latency).
			chain = append(chain, PathStep{Phase: phase.Name, Kind: "wait",
				StartUs: end, EndUs: t})
		}
		start := pick.StartUs
		if start < phase.StartUs {
			start = phase.StartUs
		}
		chain = append(chain, PathStep{Phase: phase.Name, Kind: "attempt",
			Task: pick.Task(), Attempt: pick.Attempt, Node: pick.Node,
			StartUs: start, EndUs: end})
		t = start
	}
	if t > phase.StartUs {
		chain = append(chain, PathStep{Phase: phase.Name, Kind: "wait",
			StartUs: phase.StartUs, EndUs: t})
	}
	// Built backwards; reverse into time order.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain
}

// Task returns the attempt's task name (attempt spans store it in
// Name).
func (s *Span) Task() string { return s.Name }

// attribute folds path steps into per-phase costs, phase order first,
// "driver" last. Durations sum to the job wall by construction.
func attribute(steps []PathStep, job *Span) []PhaseCost {
	sums := make(map[string]int64)
	for _, st := range steps {
		sums[st.Phase] += st.DurUs()
	}
	wall := job.DurUs()
	var out []PhaseCost
	add := func(name string) {
		dur, ok := sums[name]
		if !ok {
			return
		}
		delete(sums, name)
		pc := PhaseCost{Phase: name, DurUs: dur}
		if wall > 0 {
			pc.Pct = 100 * float64(dur) / float64(wall)
		}
		out = append(out, pc)
	}
	for _, phase := range job.Children {
		if phase.Kind == KindPhase {
			add(phase.Name)
		}
	}
	add("driver")
	return out
}

// stragglerFloorUs is how far past its phase median an attempt must
// also run to be a straggler: a ratio alone flags attempts of tens of
// microseconds, whose spread is scheduling noise.
const stragglerFloorUs = 1000

// stragglers flags attempts slower than factor × their phase's median
// attempt duration and over stragglerFloorUs past it, cross-referenced
// with speculative kills.
func stragglers(job *Span, factor float64) []Straggler {
	var out []Straggler
	for _, phase := range job.Children {
		if phase.Kind != KindPhase {
			continue
		}
		var durs []int64
		speculated := make(map[string]bool) // tasks with a killed attempt
		for _, a := range phase.Children {
			if a.Kind != KindAttempt || a.Status == StatusRunning {
				continue
			}
			durs = append(durs, a.DurUs())
			if a.Status == StatusKilled {
				speculated[a.Name] = true
			}
		}
		if len(durs) < 2 {
			continue
		}
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		median := durs[len(durs)/2]
		if len(durs)%2 == 0 {
			median = (durs[len(durs)/2-1] + durs[len(durs)/2]) / 2
		}
		if median <= 0 {
			continue
		}
		for _, a := range phase.Children {
			if a.Kind != KindAttempt || a.Status == StatusRunning {
				continue
			}
			d := a.DurUs()
			if float64(d) > factor*float64(median) && d-median > stragglerFloorUs {
				out = append(out, Straggler{
					Phase: phase.Name, Task: a.Name, Attempt: a.Attempt, Node: a.Node,
					DurUs: d, MedianUs: median, Factor: float64(d) / float64(median),
					Speculated:   speculated[a.Name],
					LostToBackup: a.Status == StatusKilled,
				})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].DurUs > out[j].DurUs })
	return out
}

// skew summarises the shuffle partition distribution the reduce phase
// opened with, flagging hot partitions.
func skew(job *Span, factor float64) *SkewReport {
	var parts []obs.PartStat
	for _, phase := range job.Children {
		if phase.Kind == KindPhase && len(phase.Parts) > 0 {
			parts = phase.Parts
			break
		}
	}
	if len(parts) == 0 {
		return nil
	}
	r := &SkewReport{Partitions: len(parts)}
	for _, p := range parts {
		r.TotalRecords += p.Records
		r.TotalBytes += p.Bytes
		if p.Bytes > r.MaxPart.Bytes || (p.Bytes == r.MaxPart.Bytes && p.Records > r.MaxPart.Records) {
			r.MaxPart = p
		}
	}
	meanBytes := float64(r.TotalBytes) / float64(len(parts))
	meanRecs := float64(r.TotalRecords) / float64(len(parts))
	switch {
	case meanBytes > 0:
		r.Imbalance = float64(r.MaxPart.Bytes) / meanBytes
	case meanRecs > 0:
		r.Imbalance = float64(r.MaxPart.Records) / meanRecs
	default:
		r.Imbalance = 1
	}
	for _, p := range parts {
		hot := (meanBytes > 0 && float64(p.Bytes) > factor*meanBytes) ||
			(meanBytes == 0 && meanRecs > 0 && float64(p.Records) > factor*meanRecs)
		if hot {
			r.Hot = append(r.Hot, p)
		}
	}
	sort.SliceStable(r.Hot, func(i, j int) bool { return r.Hot[i].Bytes > r.Hot[j].Bytes })
	return r
}
