package telemetry

import (
	"runtime"
	"testing"
)

// TestGCPauseHistogramInvariant forces more collections than the runtime's
// pause ring holds between two scrapes: the go_gc_pause_ns snapshot must
// still describe one set of pauses — sum(bucket counts) == Count — so its
// quantiles land in populated buckets instead of running off the end.
func TestGCPauseHistogramInvariant(t *testing.T) {
	r := NewRegistry()
	before := r.Snapshot()
	var ms runtime.MemStats
	ring := len(ms.PauseNs)
	for i := 0; i < ring+44; i++ {
		runtime.GC()
	}
	after := r.Snapshot()
	if d := after.Counter("go_gc_cycles_total") - before.Counter("go_gc_cycles_total"); d < uint64(ring+44) {
		t.Fatalf("go_gc_cycles_total moved by %d, want >= %d", d, ring+44)
	}
	for name, s := range map[string]*Snapshot{"before": before, "after": after} {
		h := s.Histograms["go_gc_pause_ns"]
		var inBuckets uint64
		for _, b := range h.Buckets {
			inBuckets += b.Count
		}
		if inBuckets != h.Count {
			t.Errorf("%s: buckets hold %d pauses, Count says %d", name, inBuckets, h.Count)
		}
	}
	h := after.Histograms["go_gc_pause_ns"]
	// Only the ring's worth of the forced cycles was still readable.
	if got := h.Count - before.Histograms["go_gc_pause_ns"].Count; got != uint64(ring) {
		t.Errorf("folded %d pauses between scrapes, want the ring's %d", got, ring)
	}
	populated := false
	for _, b := range h.Buckets {
		if b.Count > 0 && float64(b.Lo) <= h.P50 && h.P50 <= float64(b.Hi) {
			populated = true
		}
	}
	if !populated {
		t.Errorf("p50 = %v lands in no populated bucket of %+v", h.P50, h.Buckets)
	}
}
