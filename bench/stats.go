package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// dist is the five-number summary printed for every timing. With 3-12
// samples per run no percentile above the median is supported, so none
// is reported.
type dist struct {
	Samples int     `json:"samples"`
	Min     float64 `json:"min"`
	Q1      float64 `json:"q1"`
	Median  float64 `json:"median"`
	Q3      float64 `json:"q3"`
	Max     float64 `json:"max"`
}

// quantile interpolates linearly between order statistics of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func summarize(values []float64) dist {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s) == 0 {
		return dist{}
	}
	return dist{
		Samples: len(s), Min: s[0], Q1: quantile(s, 0.25),
		Median: quantile(s, 0.5), Q3: quantile(s, 0.75), Max: s[len(s)-1],
	}
}

func median(values []float64) float64 { return summarize(values).Median }

// procSnap is the process-wide state read before and after a timed
// section; everything here is read outside the section.
type procSnap struct {
	totalAlloc uint64
	mallocs    uint64
	gcCycles   uint32
	gcCPUS     float64 // runtime/metrics estimate of CPU spent in the collector
	cpuS       float64 // user+sys of this process
}

var gcCPUSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func snapProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(gcCPUSample)
	s := procSnap{totalAlloc: ms.TotalAlloc, mallocs: ms.Mallocs, gcCycles: ms.NumGC, cpuS: cpuSeconds(syscall.RUSAGE_SELF)}
	if gcCPUSample[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPUS = gcCPUSample[0].Value.Float64()
	}
	return s
}

// cpuSeconds returns user+sys CPU of this process (RUSAGE_SELF) or of
// its waited-for children (RUSAGE_CHILDREN).
func cpuSeconds(who int) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSBytes reads VmHWM, the resident-set high-water mark of this
// process; 0 when /proc is unavailable.
func peakRSSBytes() uint64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return 0
		}
		kb, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

// heapSampler polls the live-object heap size while a traced
// repetition runs; its maximum is runtime.peak_heap_bytes. It is the
// one thing a traced repetition does inside the timed section that an
// untraced one does not.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if sample[0].Value.Kind() == metrics.KindUint64 && sample[0].Value.Uint64() > h.peak {
				h.peak = sample[0].Value.Uint64()
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends the sampler and returns the highest heap size it saw.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	h.wg.Wait()
	return h.peak
}
