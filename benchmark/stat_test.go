package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 5, 5}, 5},
	}
	for _, c := range cases {
		if got := median(c.in); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

// The expected quartiles are what Python's statistics.quantiles(xs, n=4)
// prints for the same vectors, including its extrapolation on tiny samples.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10.5, 3.25, 8, 1, 7.75, 2}, 1.75, 8.625},
		{[]float64{5, 5, 5, 5}, 5, 5},
		{[]float64{9}, 9, 9},
		{nil, 0, 0},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestIQRPct(t *testing.T) {
	// Quartiles 2.75 and 8.25 around a median of 5.5: the range is the median.
	if got := iqrPct([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 100) {
		t.Errorf("iqrPct(1..10) = %v, want 100", got)
	}
	if got := iqrPct([]float64{5, 5, 5, 5}); got != 0 {
		t.Errorf("iqrPct of a constant sample = %v, want 0", got)
	}
	if got := iqrPct([]float64{-1, 0, 1}); got != 0 {
		t.Errorf("iqrPct around a zero median = %v, want 0", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 50}, {99, 99}, {99.9, 100}, {100, 100},
	}
	for _, c := range cases {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{3, 9}, 50); got != 3 {
		t.Errorf("percentile([3 9], 50) = %v, want 3 (a measured value, not 6)", got)
	}
}

func TestHighestPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},    // the median of 19 has only 9 beyond it
		{20, 50},   // rank 10, ten beyond
		{40, 75},   // rank 30, ten beyond
		{100, 90},  // rank 90; p95 would leave five
		{200, 95},  // rank 190
		{999, 95},  // p99 is rank 990, nine beyond
		{1000, 99}, // rank 990, ten beyond
		{10_000, 99.9},
		{100_000, 99.99},
	}
	for _, c := range cases {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}
