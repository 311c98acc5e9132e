// Package stats provides the small statistical toolkit shared by the
// measurement pipeline: descriptive statistics, empirical CDFs, quantiles,
// log-scale histograms and Shannon entropy.
//
// All functions are pure and deterministic; none of them mutate their
// arguments unless documented otherwise.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that cannot produce a meaningful result
// for an empty sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for samples with
// fewer than one element.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	mean := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - mean
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Median returns the median of xs without mutating it, or 0 for an empty
// sample.
func Median(xs []float64) float64 {
	cp := make([]float64, len(xs))
	copy(cp, xs)
	return MedianInPlace(cp)
}

// MedianInPlace is Median for a caller that owns xs and no longer needs its
// order: it sorts xs instead of a copy.
func MedianInPlace(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// MinMax returns the minimum and maximum of xs. It returns ErrEmpty for an
// empty sample.
func MinMax(xs []float64) (min, max float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max, nil
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between closest ranks. It returns ErrEmpty for an empty
// sample and clamps q into [0, 1].
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	return quantileSorted(cp, q), nil
}

func quantileSorted(sorted []float64, q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// CDF is an empirical cumulative distribution function over a finite sample.
// The zero value is not usable; construct one with NewCDF.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from xs. The input slice is copied.
func NewCDF(xs []float64) *CDF {
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	return &CDF{sorted: cp}
}

// Len returns the number of samples behind the CDF.
func (c *CDF) Len() int { return len(c.sorted) }

// At returns P(X <= x), the fraction of samples less than or equal to x.
// An empty CDF reports 0 everywhere.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// sort.SearchFloat64s returns the first index with sorted[i] >= x; we
	// want the count of entries <= x, so search for the first entry > x.
	idx := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > x })
	return float64(idx) / float64(len(c.sorted))
}

// Quantile returns the q-th quantile of the underlying sample.
func (c *CDF) Quantile(q float64) (float64, error) {
	if len(c.sorted) == 0 {
		return 0, ErrEmpty
	}
	return quantileSorted(c.sorted, q), nil
}

// Points samples the CDF at n evenly spaced probe values spanning the sample
// range, returning (x, P(X<=x)) pairs suitable for plotting. n must be >= 2;
// smaller values are promoted to 2. An empty CDF yields nil.
func (c *CDF) Points(n int) []Point {
	if len(c.sorted) == 0 {
		return nil
	}
	if n < 2 {
		n = 2
	}
	lo, hi := c.sorted[0], c.sorted[len(c.sorted)-1]
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		pts = append(pts, Point{X: x, Y: c.At(x)})
	}
	return pts
}

// Point is a single (x, y) sample of a distribution or series.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Histogram is a fixed-bin histogram. Construct with NewHistogram or
// NewLogHistogram.
type Histogram struct {
	edges  []float64 // len(edges) == len(counts)+1
	counts []int
	under  int // observations below the first edge
	over   int // observations at or above the last edge
	total  int
}

// NewHistogram builds a histogram with nbins equal-width bins over [lo, hi).
// It returns nil if nbins < 1 or hi <= lo.
func NewHistogram(lo, hi float64, nbins int) *Histogram {
	if nbins < 1 || hi <= lo {
		return nil
	}
	edges := make([]float64, nbins+1)
	width := (hi - lo) / float64(nbins)
	for i := range edges {
		edges[i] = lo + width*float64(i)
	}
	return &Histogram{edges: edges, counts: make([]int, nbins)}
}

// NewLogHistogram builds a histogram whose bin edges grow geometrically from
// lo to hi (both must be positive, hi > lo). Useful for long-tailed
// quantities such as lookup volumes and TTLs.
func NewLogHistogram(lo, hi float64, nbins int) *Histogram {
	if nbins < 1 || lo <= 0 || hi <= lo {
		return nil
	}
	edges := make([]float64, nbins+1)
	ratio := math.Pow(hi/lo, 1/float64(nbins))
	edges[0] = lo
	for i := 1; i <= nbins; i++ {
		edges[i] = edges[i-1] * ratio
	}
	edges[nbins] = hi // avoid floating-point drift at the top edge
	return &Histogram{edges: edges, counts: make([]int, nbins)}
}

// Observe adds one observation to the histogram.
func (h *Histogram) Observe(x float64) {
	h.total++
	switch {
	case x < h.edges[0]:
		h.under++
	case x >= h.edges[len(h.edges)-1]:
		h.over++
	default:
		// Binary search for the bin: first edge strictly greater than x,
		// minus one.
		idx := sort.SearchFloat64s(h.edges, x)
		if idx < len(h.edges) && h.edges[idx] == x {
			// x sits exactly on an edge: it belongs to the bin starting there.
			h.counts[idx]++
			return
		}
		h.counts[idx-1]++
	}
}

// Total returns the number of observations, including under/overflow.
func (h *Histogram) Total() int { return h.total }

// Bins returns a copy of the histogram contents as (lower edge, count) pairs.
func (h *Histogram) Bins() []Bin {
	out := make([]Bin, len(h.counts))
	for i, c := range h.counts {
		out[i] = Bin{Lo: h.edges[i], Hi: h.edges[i+1], Count: c}
	}
	return out
}

// Underflow returns the count of observations below the first edge.
func (h *Histogram) Underflow() int { return h.under }

// Overflow returns the count of observations at or above the last edge.
func (h *Histogram) Overflow() int { return h.over }

// Bin is one histogram bucket covering [Lo, Hi).
type Bin struct {
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Count int     `json:"count"`
}

// ShannonEntropy returns the Shannon entropy, in bits, of the byte
// distribution of s. The empty string has zero entropy.
func ShannonEntropy(s string) float64 {
	if len(s) == 0 {
		return 0
	}
	var freq [256]int
	for i := 0; i < len(s); i++ {
		freq[s[i]]++
	}
	n := float64(len(s))
	var h float64
	for _, c := range freq {
		if c == 0 {
			continue
		}
		p := float64(c) / n
		h -= p * math.Log2(p)
	}
	return h
}

// FractionLeq returns the fraction of xs that are <= limit, or 0 for an
// empty sample.
func FractionLeq(xs []float64, limit float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x <= limit {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// FractionZero returns the fraction of xs that are exactly zero.
func FractionZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x == 0 {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}
