package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of xs, sorting xs in place. It returns 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// median of xs (0 for none), the middle value or the mean of the two
// middle ones.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// memEvery is the heap sampling period of a timed phase: a few
// readings per GC cycle, while waking rarely enough not to delay the
// requests it shares the CPUs with.
const memEvery = 10 * time.Millisecond

// memSample is one reading of the Go heap.
type memSample struct {
	at         time.Time
	totalAlloc uint64
	liveHeap   uint64
}

// memSampler reads the heap on a fixed period, and on demand through
// mark, until Stop. Readings give the allocation delta and the live
// heap of any interval of the run. It reads runtime/metrics, which
// does not stop the world.
type memSampler struct {
	mu      sync.Mutex
	read    []metrics.Sample
	samples []memSample
	stop    chan struct{}
	done    chan struct{}
}

// memMetrics are the bytes allocated so far (MemStats.TotalAlloc) and
// the heap the last GC cycle marked live. The live heap is what the
// program retains (caches, queues, in-flight work). The in-use heap
// also holds garbage not yet collected, and its top moves with where
// GC cycles happen to fall: its highest reading differed by 15–33%
// between identical runs on a 2-vCPU host.
var memMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/live:bytes",
}

func startMemSampler(every time.Duration) *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	for _, name := range memMetrics {
		m.read = append(m.read, metrics.Sample{Name: name})
	}
	m.mark()
	go func() {
		defer close(m.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.mark()
			}
		}
	}()
	return m
}

// mark takes a reading now.
func (m *memSampler) mark() {
	m.mu.Lock()
	metrics.Read(m.read)
	m.samples = append(m.samples, memSample{
		at:         time.Now(),
		totalAlloc: m.read[0].Value.Uint64(),
		liveHeap:   m.read[1].Value.Uint64(),
	})
	m.mu.Unlock()
}

// Stop ends the periodic readings, takes a last one and returns them
// all, oldest first.
func (m *memSampler) Stop() []memSample {
	close(m.stop)
	<-m.done
	m.mark()
	return m.samples
}

// window is the part of a run between two heap readings.
type window struct {
	from, to  time.Time
	allocated uint64 // TotalAlloc delta
	liveHeap  uint64 // median live heap read inside
}

// memWindow returns the widest window of readings inside [from, to].
// ok is false when fewer than two readings fall inside.
func memWindow(samples []memSample, from, to time.Time) (w window, ok bool) {
	first, last := -1, -1
	var live []float64
	for i, s := range samples {
		if s.at.Before(from) || s.at.After(to) {
			continue
		}
		if first < 0 {
			first = i
		}
		last = i
		live = append(live, float64(s.liveHeap))
	}
	if first < 0 || first == last {
		return w, false
	}
	w.liveHeap = uint64(percentile(live, 50))
	w.from, w.to = samples[first].at, samples[last].at
	w.allocated = samples[last].totalAlloc - samples[first].totalAlloc
	return w, true
}
