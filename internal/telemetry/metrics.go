// Package telemetry is the pipeline's observability layer: a
// dependency-free metrics core (atomic counters, gauges, and
// power-of-two-bucket histograms collected in a named Registry), a Span
// API for timing named pipeline stages, Prometheus/pprof HTTP exposure, a
// periodic structured progress logger, and machine-readable end-of-run
// reports.
//
// Every instrument is nil-safe: methods on a nil *Counter, *Gauge,
// *Histogram, *Registry, *Tracer, or *Span are no-ops, so instrumented
// code paths need no "is telemetry on?" branching beyond holding a nil
// pointer. Instruments are lock-free (single atomic op per update), so
// hot paths may update them directly; code that cannot afford even an
// uncontended atomic keeps its own single-writer shards and registers a
// read-time merge via the registry's *Func variants instead.
package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. The zero value is ready
// to use; a nil *Counter ignores updates and reads as 0.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can go up and down. The zero value is ready to
// use; a nil *Gauge ignores updates and reads as 0.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is the histogram bucket count: bucket 0 holds zero-valued
// observations, bucket i (1..64) holds values in [2^(i-1), 2^i).
const histBuckets = 65

// Histogram counts uint64 observations (latencies in nanoseconds, sizes
// in bytes, ...) in power-of-two buckets. Updates are a few uncontended
// atomic adds; reads (Snapshot) walk the buckets without
// stopping writers, so a snapshot taken mid-update may be off by the
// in-flight observation. The zero value is ready to use; a nil
// *Histogram ignores observations.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// bucketOf returns the bucket index for v: 0 for v == 0, else
// bits.Len64(v) so that bucket i covers [2^(i-1), 2^i).
func bucketOf(v uint64) int { return bits.Len64(v) }

// bucketLo returns the inclusive lower bound of bucket i.
func bucketLo(i int) uint64 {
	if i <= 1 {
		return uint64(i) // bucket 0 holds zeros, bucket 1 starts at 1
	}
	return 1 << (i - 1)
}

// HistogramBuckets is the exported bucket count, for consumers (the
// qlog exemplar store) that index by the same bucket scheme.
const HistogramBuckets = histBuckets

// HistogramBucketOf returns the bucket index Observe(v) lands in, so
// external stores can key per-bucket state against the exposition.
func HistogramBucketOf(v uint64) int { return bucketOf(v) }

// HistogramBucketBounds returns bucket i's [lo, hi) value range (hi is
// MaxUint64 for the last bucket).
func HistogramBucketBounds(i int) (lo, hi uint64) { return bucketLo(i), bucketHi(i) }

// bucketHi returns the exclusive upper bound of bucket i, or MaxUint64
// for the last bucket.
func bucketHi(i int) uint64 {
	if i == 0 {
		return 1
	}
	if i >= 64 {
		return math.MaxUint64
	}
	return 1 << i
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
}

// Snapshot captures the histogram's current state, including the p50,
// p95 and p99 quantile estimates.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return SnapshotHistograms(h)
}

// Bucket is one histogram bucket: observations in [Lo, Hi).
type Bucket struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count uint64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram (or a
// read-time merge of several shards), with only non-empty buckets kept.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
	P50     float64  `json:"p50"`
	P95     float64  `json:"p95"`
	P99     float64  `json:"p99"`
}

// SnapshotHistograms merges one or more histogram shards into a single
// snapshot — the read path for per-worker sharded histograms. Nil shards
// are skipped.
func SnapshotHistograms(hs ...*Histogram) HistogramSnapshot {
	var counts [histBuckets]uint64
	var s HistogramSnapshot
	for _, h := range hs {
		if h == nil {
			continue
		}
		s.Count += h.count.Load()
		s.Sum += h.sum.Load()
		for i := range h.buckets {
			counts[i] += h.buckets[i].Load()
		}
	}
	for i, c := range counts {
		if c > 0 {
			s.Buckets = append(s.Buckets, Bucket{Lo: bucketLo(i), Hi: bucketHi(i), Count: c})
		}
	}
	s.P50 = s.Quantile(0.50)
	s.P95 = s.Quantile(0.95)
	s.P99 = s.Quantile(0.99)
	return s
}

// Quantile estimates the q-th quantile (clamped into [0, 1]) from the
// bucket counts, interpolating linearly inside the covering bucket. The
// estimate is exact for zero values and within one power-of-two bucket
// otherwise. Returns 0 for an empty snapshot.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for _, b := range s.Buckets {
		next := cum + float64(b.Count)
		if rank <= next || b == s.Buckets[len(s.Buckets)-1] {
			if b.Lo == 0 {
				return 0
			}
			frac := (rank - cum) / float64(b.Count)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return float64(b.Lo) + frac*float64(b.Hi-b.Lo)
		}
		cum = next
	}
	return 0
}

// Delta returns a snapshot of the activity between prev and s (counts
// and buckets subtracted, quantiles recomputed over the difference).
// Counts that went backwards clamp to zero.
func (s HistogramSnapshot) Delta(prev HistogramSnapshot) HistogramSnapshot {
	var d HistogramSnapshot
	d.Count = subClamp(s.Count, prev.Count)
	d.Sum = subClamp(s.Sum, prev.Sum)
	prevAt := make(map[uint64]uint64, len(prev.Buckets))
	for _, b := range prev.Buckets {
		prevAt[b.Lo] = b.Count
	}
	for _, b := range s.Buckets {
		if c := subClamp(b.Count, prevAt[b.Lo]); c > 0 {
			d.Buckets = append(d.Buckets, Bucket{Lo: b.Lo, Hi: b.Hi, Count: c})
		}
	}
	d.P50 = d.Quantile(0.50)
	d.P95 = d.Quantile(0.95)
	d.P99 = d.Quantile(0.99)
	return d
}

func subClamp(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}
