package trace

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
)

// benchEvents synthesizes a pipeline of jobs jobs × tasks map attempts
// (plus shuffle Parts and reducers), the shape Assemble and the
// analysis passes see from a real k-means run.
func benchEvents(jobs, tasks int) []obs.Event {
	var evs []obs.Event
	mk := func(t obs.EventType, us int64, f obs.Event) {
		f.Type = t
		f.Time = at(us)
		evs = append(evs, f)
	}
	mk(obs.SpanStart, 0, obs.Event{Span: "bench"})
	clock := int64(1000)
	for j := 0; j < jobs; j++ {
		job := fmt.Sprintf("bench-%03d", j)
		mk(obs.JobSubmitted, clock, obs.Event{Job: job, Parent: "bench"})
		mk(obs.PhaseStart, clock+10, obs.Event{Job: job, Phase: "map"})
		for i := 0; i < tasks; i++ {
			task := fmt.Sprintf("map-%04d", i)
			start := clock + 20 + int64(i)*7
			mk(obs.AttemptStarted, start, obs.Event{Job: job, Phase: "map", Task: task, Node: fmt.Sprintf("n%d", i%8)})
			mk(obs.AttemptSucceeded, start+200+int64(i%13)*11, obs.Event{Job: job, Phase: "map", Task: task, Node: fmt.Sprintf("n%d", i%8)})
		}
		mapEnd := clock + 20 + int64(tasks)*7 + 400
		mk(obs.PhaseEnd, mapEnd, obs.Event{Job: job, Phase: "map"})
		parts := make([]obs.PartStat, 4)
		for p := range parts {
			parts[p] = obs.PartStat{Part: p, Runs: int64(tasks), Records: 100, Bytes: 3200}
		}
		mk(obs.PhaseStart, mapEnd+5, obs.Event{Job: job, Phase: "shuffle"})
		mk(obs.PhaseEnd, mapEnd+100, obs.Event{Job: job, Phase: "shuffle", Value: 12800, Parts: parts})
		mk(obs.PhaseStart, mapEnd+110, obs.Event{Job: job, Phase: "reduce"})
		for r := 0; r < 4; r++ {
			task := fmt.Sprintf("reduce-%04d", r)
			mk(obs.AttemptStarted, mapEnd+120, obs.Event{Job: job, Phase: "reduce", Task: task, Node: fmt.Sprintf("n%d", r)})
			mk(obs.AttemptSucceeded, mapEnd+300+int64(r)*17, obs.Event{Job: job, Phase: "reduce", Task: task, Node: fmt.Sprintf("n%d", r)})
		}
		mk(obs.PhaseEnd, mapEnd+400, obs.Event{Job: job, Phase: "reduce"})
		mk(obs.JobFinished, mapEnd+420, obs.Event{Job: job, Parent: "bench", Dur: time.Duration(mapEnd+420-clock) * time.Microsecond})
		clock = mapEnd + 500
	}
	mk(obs.SpanEnd, clock, obs.Event{Span: "bench"})
	return evs
}

func BenchmarkTraceAssemble(b *testing.B) {
	evs := benchEvents(10, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trees := Assemble(evs)
		if len(trees) != 1 {
			b.Fatalf("trees: %d", len(trees))
		}
	}
}

func BenchmarkCriticalPath(b *testing.B) {
	trees := Assemble(benchEvents(10, 100))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := AnalyzeTree(trees[0], Options{})
		if len(a.Jobs) != 10 {
			b.Fatalf("jobs: %d", len(a.Jobs))
		}
	}
}
