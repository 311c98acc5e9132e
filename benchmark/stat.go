package main

import (
	"math"
	"sort"
)

// This file holds every statistic the harness reports. Nothing else in the
// benchmark sorts a sample or interpolates a quantile, so a wrong median
// or percentile is a bug in one tested place.

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for an empty sample.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of xs by the rule
// Python's statistics.quantiles(xs, n=4) uses (the "exclusive" method:
// the i-th cut sits at position i*(len+1)/4 of the sorted sample, linearly
// interpolated between its neighbours). The benchmark's acceptance
// spread is defined with that function, so the A/A tool must agree with it
// digit for digit. Fewer than two samples have no spread: both quartiles
// are the sample itself (or 0).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		// Clamp the interval first and take delta from the clamped one,
		// as Python does: tiny samples then extrapolate past their ends.
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// iqrPct returns the interquartile range of xs as a percentage of its
// median: the spread figure the benchmark's bounds are compared against.
func iqrPct(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return 100 * (q3 - q1) / math.Abs(m)
}

// percentile returns the p-th percentile (0..100) of xs by the
// nearest-rank rule: the smallest sample with at least p percent of the
// sample at or below it. Nearest rank never invents a value that was not
// measured, which matters for tail latencies.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	return s[nearestRank(p, n)-1]
}

// nearestRank returns the 1-based position of the p-th percentile among n
// sorted samples, n >= 1. The small tolerance keeps a product that is an
// integer on paper (99.9 % of 10 000) from being rounded up by its binary
// representation.
func nearestRank(p float64, n int) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(rank, 1), n)
}

// tailLadder lists the percentiles a latency report may quote, ascending.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9, 99.99}

// highestPercentile returns the highest percentile of tailLadder that
// still has at least ten of n samples strictly beyond its nearest-rank
// position: a tail quoted from fewer samples is one outlier away from a
// different number. It returns 0 when even the median lacks ten.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if n > 0 && n-nearestRank(p, n) >= 10 {
			best = p
		}
	}
	return best
}
