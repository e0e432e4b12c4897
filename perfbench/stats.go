package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the same rule as numpy's default). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// memSampler samples, at a fixed cadence until stopped, the memory the Go
// runtime holds — /memory/classes/total:bytes minus the heap pages it has
// released to the OS. Total alone counts mapped address space, which grows
// in whole arenas and reads the same across very different runs.
type memSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

const (
	memTotalMetric    = "/memory/classes/total:bytes"
	memReleasedMetric = "/memory/classes/heap/released:bytes"
)

func startMemSampler(every time.Duration) *memSampler {
	s := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *memSampler) sample() {
	m := []metrics.Sample{{Name: memTotalMetric}, {Name: memReleasedMetric}}
	metrics.Read(m)
	if m[0].Value.Kind() != metrics.KindUint64 || m[1].Value.Kind() != metrics.KindUint64 {
		return
	}
	v := m[0].Value.Uint64() - m[1].Value.Uint64()
	s.mu.Lock()
	s.peak = max(s.peak, v)
	s.mu.Unlock()
}

// Stop ends sampling, takes a last sample, and returns the peak in MB.
func (s *memSampler) Stop() float64 {
	close(s.stop)
	<-s.done
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	return float64(s.peak) / (1 << 20)
}

// goCounters is a snapshot of the runtime counters the go.* layer metrics
// are deltas of.
type goCounters struct {
	allocBytes uint64
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds
}

func readGoCounters() goCounters {
	m := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(m)
	var g goCounters
	if m[0].Value.Kind() == metrics.KindUint64 {
		g.allocBytes = m[0].Value.Uint64()
	}
	if m[1].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = m[1].Value.Float64()
	}
	if m[2].Value.Kind() == metrics.KindFloat64 {
		g.totalCPU = m[2].Value.Float64()
	}
	return g
}
