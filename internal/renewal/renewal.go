// Package renewal implements the TTL-based cache model of Jung, Berger and
// Balakrishnan ("Modeling TTL-based Internet caches", INFOCOM 2003), which
// the paper discusses in Section II-B3 and deliberately does NOT use: the
// model assumes a single shared cache and query streams inferable per
// client, neither of which holds at an ISP resolver cluster — hence the
// paper's black-box approach.
//
// Reproducing the model lets the evaluation quantify that argument: compare
// the model's predicted hit rates against the hit rates the black-box
// measurement extracts from the simulated cluster.
package renewal

import (
	"errors"
	"math"
)

// ErrBadParams reports non-positive model inputs.
var ErrBadParams = errors.New("renewal: rate and ttl must be positive")

// HitRatePoisson returns the steady-state cache hit rate of an item with
// Poisson query arrivals at rate lambda (queries/second) and a cache TTL of
// ttl seconds.
//
// Under the renewal argument, each miss starts a TTL window; the expected
// number of queries per window is lambda*ttl, of which all but the first
// (the miss itself, which opens the window) are hits:
//
//	h = E[hits per cycle] / E[queries per cycle]
//	  = (lambda*ttl) / (lambda*ttl + 1)
func HitRatePoisson(lambda, ttl float64) (float64, error) {
	if lambda <= 0 || ttl <= 0 {
		return 0, ErrBadParams
	}
	lt := lambda * ttl
	return lt / (lt + 1), nil
}

// Prediction pairs a record's observed parameters with the model's output.
type Prediction struct {
	Name      string
	Lambda    float64 // observed queries/second
	TTL       float64 // seconds
	Predicted float64 // model hit rate
	Measured  float64 // black-box DHR
}

// Compare summarizes model-vs-measurement over a set of predictions.
type Compare struct {
	N             int
	MeanPredicted float64
	MeanMeasured  float64
	// MeanAbsErr is the mean |predicted - measured| per record.
	MeanAbsErr float64
	// Correlation is the Pearson correlation between the two series.
	Correlation float64
}

// Summarize computes the comparison statistics.
func Summarize(preds []Prediction) Compare {
	c := Compare{N: len(preds)}
	if c.N == 0 {
		return c
	}
	var sp, sm, sae float64
	for _, p := range preds {
		sp += p.Predicted
		sm += p.Measured
		sae += math.Abs(p.Predicted - p.Measured)
	}
	n := float64(c.N)
	c.MeanPredicted = sp / n
	c.MeanMeasured = sm / n
	c.MeanAbsErr = sae / n

	var cov, vp, vm float64
	for _, p := range preds {
		dp := p.Predicted - c.MeanPredicted
		dm := p.Measured - c.MeanMeasured
		cov += dp * dm
		vp += dp * dp
		vm += dm * dm
	}
	if vp > 0 && vm > 0 {
		c.Correlation = cov / math.Sqrt(vp*vm)
	}
	return c
}
