package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"whowas/internal/core"
)

// environment is the env block of every result: the hardware and
// toolchain the numbers were measured on, and the worker pools the
// campaign config resolves to on it (FastCampaign sizes them from
// GOMAXPROCS).
func environment() map[string]any {
	camp := core.FastCampaign()
	return map[string]any{
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go_version":      runtime.Version(),
		"goos":            runtime.GOOS,
		"goarch":          runtime.GOARCH,
		"scanner_workers": camp.Scanner.WithDefaults().Workers,
		"fetcher_workers": camp.Fetcher.WithDefaults().Workers,
	}
}

// Runtime counters read at phase boundaries.
const (
	mAllocBytes   = "/gc/heap/allocs:bytes"
	mAllocObjects = "/gc/heap/allocs:objects"
	mGCCycles     = "/gc/cycles/total:gc-cycles"
	mGCCPU        = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU     = "/cpu/classes/total:cpu-seconds"
	mIdleCPU      = "/cpu/classes/idle:cpu-seconds"
	mLiveHeap     = "/gc/heap/live:bytes"
)

// runtimeSample is one reading of the runtime counters plus the
// process's CPU time from the kernel.
type runtimeSample struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU, busyCPU                     float64 // runtime's estimates, seconds
	procCPU                            time.Duration
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: mAllocBytes}, {Name: mAllocObjects}, {Name: mGCCycles},
		{Name: mGCCPU}, {Name: mTotalCPU}, {Name: mIdleCPU},
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
		busyCPU:      s[4].Value.Float64() - s[5].Value.Float64(),
		procCPU:      processCPU(),
	}
}

// processCPU is the user and system CPU time the kernel has charged the
// process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeDelta is the runtime's work between two samples.
type runtimeDelta struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU, busyCPU                     float64
	procCPU                            time.Duration
}

func (a runtimeSample) to(b runtimeSample) runtimeDelta {
	return runtimeDelta{
		allocBytes:   b.allocBytes - a.allocBytes,
		allocObjects: b.allocObjects - a.allocObjects,
		gcCycles:     b.gcCycles - a.gcCycles,
		gcCPU:        b.gcCPU - a.gcCPU,
		busyCPU:      b.busyCPU - a.busyCPU,
		procCPU:      b.procCPU - a.procCPU,
	}
}

func (d *runtimeDelta) add(o runtimeDelta) {
	d.allocBytes += o.allocBytes
	d.allocObjects += o.allocObjects
	d.gcCycles += o.gcCycles
	d.gcCPU += o.gcCPU
	d.busyCPU += o.busyCPU
	d.procCPU += o.procCPU
}

// liveHeap is the live heap as of the latest GC, in bytes.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: mLiveHeap}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapPeak samples the live heap (as of the latest GC) while a timed
// phase runs and keeps the largest reading.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		s := []metrics.Sample{{Name: mLiveHeap}}
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in bytes.
func (h *heapPeak) Stop() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// durations is a concurrency-safe list of timings.
type durations struct {
	mu sync.Mutex
	d  []time.Duration
}

func (s *durations) add(d time.Duration) {
	s.mu.Lock()
	s.d = append(s.d, d)
	s.mu.Unlock()
}

func (s *durations) snapshot() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Duration(nil), s.d...)
}

// quantile returns the q-quantile of ds by linear interpolation
// between closest ranks (Python's statistics.quantiles "inclusive"
// method); 0 for an empty list.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[lo+1]-s[lo]))
}

func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
