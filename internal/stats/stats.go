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
