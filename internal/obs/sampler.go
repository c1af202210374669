package obs

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// StartRuntimeSampler samples Go runtime health — heap, goroutines,
// GC — into registry gauges on a ticker, so phase timings and traces
// can be correlated with memory pressure (map output runs held in
// memory show up as a go_heap_alloc_bytes ramp across the map phase
// that the reduce phase drains).
//
// It samples once immediately, then every interval (minimum 100ms,
// default 1s when interval <= 0). The returned stop function halts the
// sampler and waits for its goroutine to exit; it is idempotent.
func StartRuntimeSampler(reg *Registry, interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	if interval < 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	goroutines := reg.Gauge("go_goroutines", "Live goroutines.", nil)
	heapAlloc := reg.Gauge("go_heap_alloc_bytes", "Bytes of allocated heap objects.", nil)
	heapSys := reg.Gauge("go_heap_sys_bytes", "Heap memory obtained from the OS.", nil)
	nextGC := reg.Gauge("go_next_gc_bytes", "Heap size target of the next GC cycle.", nil)
	gcRuns := reg.Gauge("go_gc_runs_total", "Completed GC cycles.", nil)
	gcPause := reg.Gauge("go_gc_pause_total_ns", "Cumulative GC stop-the-world pause time.", nil)
	// Monotonic counters, so a scraper can derive rates between two
	// samples (allocation rate, CPU burn) instead of only seeing the
	// instantaneous heap shape.
	totalAlloc := reg.Gauge("go_total_alloc_bytes", "Cumulative bytes allocated on the heap (monotonic).", nil)
	mallocs := reg.Gauge("go_mallocs_total", "Cumulative heap objects allocated (monotonic).", nil)
	cpuUser := reg.Gauge("go_cpu_user_ns", "Cumulative CPU time spent running user Go code (monotonic).", nil)

	cpuSample := []metrics.Sample{{Name: "/cpu/classes/user:cpu-seconds"}}

	sample := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		goroutines.Set(int64(runtime.NumGoroutine()))
		heapAlloc.Set(int64(ms.HeapAlloc))
		heapSys.Set(int64(ms.HeapSys))
		nextGC.Set(int64(ms.NextGC))
		gcRuns.Set(int64(ms.NumGC))
		gcPause.Set(int64(ms.PauseTotalNs))
		totalAlloc.Set(int64(ms.TotalAlloc))
		mallocs.Set(int64(ms.Mallocs))
		metrics.Read(cpuSample)
		if cpuSample[0].Value.Kind() == metrics.KindFloat64 {
			cpuUser.Set(int64(cpuSample[0].Value.Float64() * 1e9))
		}
	}
	sample()

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				sample()
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}
