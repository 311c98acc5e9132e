package telemetry

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// runtimeStats is a registry's view of the Go runtime. ReadMemStats stops
// the world, so a collection pass (Snapshot, WritePrometheus) takes one
// reading up front and the runtime metrics are all served from it.
type runtimeStats struct {
	mu        sync.Mutex // serializes read
	heapAlloc atomic.Uint64
	numGC     atomic.Uint32
	// pauses is go_gc_pause_ns: a running histogram of every GC pause a
	// read has seen, so Count, Sum and the buckets describe the same pauses.
	pauses *Histogram
}

func (rs *runtimeStats) read() {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	// MemStats.PauseNs is a ring of the most recent pauses, GC cycle n at
	// index (n-1) mod its length: fold in the cycles since the last read,
	// less any that have already been overwritten.
	ring := uint32(len(ms.PauseNs))
	first := rs.numGC.Load()
	if ms.NumGC-first > ring {
		first = ms.NumGC - ring
	}
	for n := first; n < ms.NumGC; n++ {
		rs.pauses.Observe(ms.PauseNs[n%ring])
	}
	rs.heapAlloc.Store(ms.HeapAlloc)
	rs.numGC.Store(ms.NumGC)
}

// registerRuntimeMetrics adds the Go runtime gauges every registry
// carries, so any scrape shows process health next to pipeline counters.
func registerRuntimeMetrics(r *Registry) {
	rs := &r.runtime
	r.GaugeFunc("go_goroutines", "Current number of goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.GaugeFunc("go_heap_alloc_bytes", "Bytes of allocated heap objects.",
		func() float64 { return float64(rs.heapAlloc.Load()) })
	r.CounterFunc("go_gc_cycles_total", "Completed GC cycles.",
		func() uint64 { return uint64(rs.numGC.Load()) })
	rs.pauses = r.Histogram("go_gc_pause_ns", "Stop-the-world GC pause durations.")
}
