package main

import (
	"fmt"
	"math"
)

// plan is how much of a workload one run executes.
type plan struct {
	seed   int64
	setups int // set-ups timed; the last one's deployment is measured on
	reps   int // timed repetitions after the warm-up
	traced bool
}

// planFor sizes a run for a requested measuring time. An untraced run
// sets up twice, so that setup_s does not rest on the one set-up a cold
// process makes (a third would cost a tenth of the driver's time
// limit); a traced run is three repetitions, untraced then traced, on
// one set-up.
func planFor(w *workloadDef, seed int64, seconds float64, traced bool) plan {
	if traced {
		return plan{seed: seed, setups: 1, reps: 3, traced: true}
	}
	reps := int(math.Round(seconds / w.expectS))
	if reps < 3 {
		reps = 3
	}
	return plan{seed: seed, setups: 2, reps: reps}
}

// expectedS is the run's wall on the reference box; ten times it is the
// deadline after which the supervising parent kills the run.
func (p plan) expectedS(w *workloadDef) float64 {
	measures := 1.0
	if p.traced {
		measures = 2
	}
	const referenceS = 4 // building the sequential reference
	return float64(p.setups)*w.setupS + referenceS + measures*float64(p.reps+1)*w.expectS
}

// metricValue is one reported number; Dist is present for timings.
type metricValue struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Dist  *dist   `json:"dist,omitempty"`
}

// workloadReport is one workload's section of the output document.
type workloadReport struct {
	Name      string                 `json:"name"`
	Why       string                 `json:"why"`
	Records   int                    `json:"records"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Errors    []string               `json:"errors,omitempty"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	Setups    []setupTimes           `json:"setups"`
	// PerLayer and Missing are filled by traced runs. A metric that does
	// not exist on this workload is named under Missing with the reason
	// and has no value.
	PerLayer map[string]metricValue `json:"per_layer,omitempty"`
	Missing  map[string]string      `json:"missing,omitempty"`
	Spans    []span                 `json:"spans,omitempty"`
}

// failedReport accounts for a run that produced nothing: every planned
// repetition counts as failed.
func failedReport(w *workloadDef, p plan, err error) workloadReport {
	n := p.reps
	if p.traced {
		n *= 2
	}
	return workloadReport{
		Name: w.name, Why: w.why, Attempted: n, Failed: n, Errors: []string{err.Error()},
		EndToEnd: map[string]metricValue{"failed_share": {Unit: "ratio", Value: 1}},
	}
}

// runWorkload executes one workload at the given size: set-up, the
// sequential reference, the untraced repetitions that yield the
// end-to-end metrics and, when traced, as many traced ones that yield
// the per-layer metrics.
func runWorkload(w *workloadDef, size sizing, p plan) workloadReport {
	r := w.newRunner(size, p.seed)
	defer r.close()
	var log *spanLog
	if p.traced {
		log = &spanLog{workload: w.name}
	}
	rep := workloadReport{Name: w.name, Why: w.why, EndToEnd: map[string]metricValue{}}
	for i := 0; i < p.setups; i++ {
		st, err := r.setup(log)
		if err != nil {
			return failedReport(w, p, fmt.Errorf("set-up: %v", err))
		}
		rep.Setups = append(rep.Setups, st)
	}
	if err := r.reference(); err != nil {
		return failedReport(w, p, fmt.Errorf("sequential reference: %v", err))
	}
	records, corpusBytes, slots := r.shape()
	rep.Records = records

	plain, traced := r.measure(p.reps, log)
	rep.Attempted, rep.Failed, rep.Errors = plain.Attempted, plain.Failed, plain.Errors
	var totals []float64
	for _, st := range rep.Setups {
		totals = append(totals, st.TotalS)
	}
	setup := summarize(totals)
	rep.EndToEnd["setup_s"] = metricValue{Unit: "s", Value: setup.Median, Dist: &setup}
	if len(plain.Walls) > 0 {
		wall := summarize(plain.Walls)
		rep.EndToEnd["wall_s"] = metricValue{Unit: "s", Value: wall.Median, Dist: &wall}
		rep.EndToEnd["records_per_s"] = metricValue{Unit: "1/s", Value: float64(records) / wall.Median}
		rep.EndToEnd["alloc_bytes_per_record"] = metricValue{
			Unit: "B", Value: float64(plain.AllocBytes) / float64(plain.AllocReps) / float64(records),
		}
	}

	if p.traced {
		rep.Attempted += traced.Attempted
		rep.Failed += traced.Failed
		rep.Errors = append(rep.Errors, traced.Errors...)
		rep.PerLayer = map[string]metricValue{}
		rep.Missing = map[string]string{}
		if traced.Agg.Reps > 0 {
			values, missing := deriveLayers(traced.Agg, records, slots, corpusBytes, w.corpusPasses)
			for name, v := range values {
				rep.PerLayer[name] = metricValue{Unit: unitOf(perLayerMetrics, name), Value: v}
			}
			rep.Missing = missing
		}
		if len(plain.Walls) > 0 && len(traced.Walls) > 0 {
			rep.PerLayer["harness.trace_overhead_ratio"] = metricValue{
				Unit: "ratio", Value: median(traced.Walls) / median(plain.Walls),
			}
		}
		rep.Spans = log.spans
	}
	rep.EndToEnd["failed_share"] = metricValue{Unit: "ratio", Value: float64(rep.Failed) / float64(rep.Attempted)}
	return rep
}
