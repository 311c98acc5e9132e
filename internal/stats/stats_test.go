package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		give []float64
		want float64
	}{
		{name: "empty", give: nil, want: 0},
		{name: "single", give: []float64{5}, want: 5},
		{name: "pair", give: []float64{1, 3}, want: 2},
		{name: "negatives", give: []float64{-2, 2}, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.give); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Mean(%v) = %v, want %v", tt.give, got, tt.want)
			}
		})
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := Variance(nil); got != 0 {
		t.Errorf("Variance(nil) = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	tests := []struct {
		name string
		give []float64
		want float64
	}{
		{name: "empty", give: nil, want: 0},
		{name: "odd", give: []float64{3, 1, 2}, want: 2},
		{name: "even", give: []float64{4, 1, 3, 2}, want: 2.5},
		{name: "repeated", give: []float64{1, 1, 1, 9}, want: 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Median(tt.give); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Median(%v) = %v, want %v", tt.give, got, tt.want)
			}
		})
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Median mutated its input: %v", xs)
	}
}

func TestMinMax(t *testing.T) {
	min, max, err := MinMax([]float64{3, -1, 7, 0})
	if err != nil {
		t.Fatalf("MinMax: %v", err)
	}
	if min != -1 || max != 7 {
		t.Errorf("MinMax = (%v, %v), want (-1, 7)", min, max)
	}
	if _, _, err := MinMax(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("MinMax(nil) err = %v, want ErrEmpty", err)
	}
}

func TestCDFAt(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	tests := []struct {
		x    float64
		want float64
	}{
		{x: 0, want: 0},
		{x: 1, want: 0.25},
		{x: 2, want: 0.75},
		{x: 2.5, want: 0.75},
		{x: 3, want: 1},
		{x: 99, want: 1},
	}
	for _, tt := range tests {
		if got := c.At(tt.x); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("At(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
	if len(c.sorted) != 4 {
		t.Errorf("%d samples, want 4", len(c.sorted))
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if got := c.At(5); got != 0 {
		t.Errorf("empty CDF At = %v, want 0", got)
	}
	if pts := c.Points(10); pts != nil {
		t.Errorf("empty CDF Points = %v, want nil", pts)
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{0, 1, 2, 3, 4})
	pts := c.Points(5)
	if len(pts) != 5 {
		t.Fatalf("Points len = %d, want 5", len(pts))
	}
	if pts[0].X != 0 || pts[len(pts)-1].X != 4 {
		t.Errorf("Points range = [%v, %v], want [0, 4]", pts[0].X, pts[len(pts)-1].X)
	}
	if pts[len(pts)-1].Y != 1 {
		t.Errorf("final Y = %v, want 1", pts[len(pts)-1].Y)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Y < pts[i-1].Y {
			t.Errorf("CDF not monotone at %d: %v < %v", i, pts[i].Y, pts[i-1].Y)
		}
	}
}

// Property: CDF.At is monotone non-decreasing and bounded in [0, 1].
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		c := NewCDF(xs)
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		pl, ph := c.At(lo), c.At(hi)
		return pl >= 0 && ph <= 1 && pl <= ph
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestShannonEntropy(t *testing.T) {
	tests := []struct {
		name string
		give string
		want float64
	}{
		{name: "empty", give: "", want: 0},
		{name: "uniform single", give: "aaaa", want: 0},
		{name: "two symbols", give: "abab", want: 1},
		{name: "four symbols", give: "abcd", want: 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ShannonEntropy(tt.give); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("ShannonEntropy(%q) = %v, want %v", tt.give, got, tt.want)
			}
		})
	}
}

// Property: entropy is permutation-invariant and bounded by log2 of the
// alphabet size.
func TestEntropyProperties(t *testing.T) {
	f := func(s string) bool {
		h := ShannonEntropy(s)
		if h < 0 {
			return false
		}
		if len(s) > 0 && h > math.Log2(256)+1e-9 {
			return false
		}
		// Permutation invariance: reverse the string.
		b := []byte(s)
		for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
			b[i], b[j] = b[j], b[i]
		}
		return almostEqual(h, ShannonEntropy(string(b)), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFractions(t *testing.T) {
	xs := []float64{0, 0, 0.5, 1}
	if got := FractionZero(xs); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("FractionZero = %v, want 0.5", got)
	}
	if got := FractionLeq(xs, 0.5); !almostEqual(got, 0.75, 1e-12) {
		t.Errorf("FractionLeq = %v, want 0.75", got)
	}
	if got := FractionZero(nil); got != 0 {
		t.Errorf("FractionZero(nil) = %v, want 0", got)
	}
	if got := FractionLeq(nil, 1); got != 0 {
		t.Errorf("FractionLeq(nil) = %v, want 0", got)
	}
}
