package renewal

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"dnsnoise/internal/cache"
)

func TestHitRatePoissonValues(t *testing.T) {
	tests := []struct {
		lambda, ttl, want float64
	}{
		{lambda: 1, ttl: 1, want: 0.5},
		{lambda: 9, ttl: 1, want: 0.9},
		{lambda: 1.0 / 300, ttl: 300, want: 0.5}, // one query per TTL on average
		{lambda: 0.001, ttl: 1, want: 0.001 / 1.001},
	}
	for _, tt := range tests {
		got, err := HitRatePoisson(tt.lambda, tt.ttl)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("HitRatePoisson(%v, %v) = %v, want %v", tt.lambda, tt.ttl, got, tt.want)
		}
	}
}

func TestHitRateErrors(t *testing.T) {
	if _, err := HitRatePoisson(0, 1); !errors.Is(err, ErrBadParams) {
		t.Errorf("zero rate err = %v", err)
	}
	if _, err := HitRatePoisson(1, -1); !errors.Is(err, ErrBadParams) {
		t.Errorf("negative ttl err = %v", err)
	}
}

// Property: hit rate is in [0,1) and monotone in lambda.
func TestPoissonModelProperties(t *testing.T) {
	f := func(l1, l2, t1 uint16) bool {
		la := float64(l1%1000+1) / 100
		lb := la + float64(l2%1000+1)/100
		ttl := float64(t1%3600 + 1)
		ha, err1 := HitRatePoisson(la, ttl)
		hb, err2 := HitRatePoisson(lb, ttl)
		if err1 != nil || err2 != nil {
			return false
		}
		return ha >= 0 && ha < 1 && hb >= ha
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// The load-bearing validation: simulate a single LRU-cached item under
// Poisson arrivals and confirm the measured hit rate converges to the
// model's prediction.
func TestModelMatchesSimulatedCache(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, tc := range []struct {
		lambda float64 // per second
		ttl    float64 // seconds
	}{
		{lambda: 0.1, ttl: 30},
		{lambda: 0.05, ttl: 60},
		{lambda: 1, ttl: 5},
	} {
		c := cache.New[string, int](16, cache.PolicyLRU)
		now := time.Date(2011, 12, 1, 0, 0, 0, 0, time.UTC)
		const n = 60000
		hits := 0
		for i := 0; i < n; i++ {
			// Poisson arrivals: exponential inter-arrival times.
			dt := rng.ExpFloat64() / tc.lambda
			now = now.Add(time.Duration(dt * float64(time.Second)))
			if _, ok := c.Get("item", now); ok {
				hits++
			} else {
				c.PutEv("item", 1, time.Duration(tc.ttl*float64(time.Second)), cache.CategoryOther, now)
			}
		}
		measured := float64(hits) / n
		predicted, err := HitRatePoisson(tc.lambda, tc.ttl)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(measured-predicted) > 0.02 {
			t.Errorf("lambda=%v ttl=%v: measured %.4f vs model %.4f",
				tc.lambda, tc.ttl, measured, predicted)
		}
	}
}

func TestSummarize(t *testing.T) {
	preds := []Prediction{
		{Predicted: 0.9, Measured: 0.8},
		{Predicted: 0.5, Measured: 0.6},
		{Predicted: 0.1, Measured: 0.2},
	}
	c := Summarize(preds)
	if c.N != 3 {
		t.Fatalf("N = %d", c.N)
	}
	if math.Abs(c.MeanPredicted-0.5) > 1e-12 || math.Abs(c.MeanMeasured-1.6/3) > 1e-12 {
		t.Errorf("means = %v, %v", c.MeanPredicted, c.MeanMeasured)
	}
	if math.Abs(c.MeanAbsErr-0.1) > 1e-12 {
		t.Errorf("MAE = %v, want 0.1", c.MeanAbsErr)
	}
	if c.Correlation < 0.95 {
		t.Errorf("correlation = %v, want ~1 for a monotone pairing", c.Correlation)
	}
	if got := Summarize(nil); got.N != 0 || got.Correlation != 0 {
		t.Errorf("empty summarize = %+v", got)
	}
}
