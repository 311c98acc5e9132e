// Streaming feature variants. The batch extractor recomputes every label
// entropy from scratch each day; a streaming re-score runs every window
// over a tree whose label sets barely change between windows, so the
// entropies are memoized (EntropyCache), running moments track per-depth
// label groups incrementally (RunningEntropy).
package features

import (
	"math"
	"strings"

	"dnsnoise/internal/stats"
)

// EntropyCache memoizes stats.ShannonEntropy per label. A streaming
// pipeline's label population is heavily repeated across windows (the
// stable zones re-score every window), so the cache converts the dominant
// feature cost into a map hit. Not safe for concurrent use; the streaming
// pipeline only touches it from the quiesced re-score path.
type EntropyCache struct {
	m map[string]float64
}

// NewEntropyCache returns an empty cache.
func NewEntropyCache() *EntropyCache {
	return &EntropyCache{m: make(map[string]float64)}
}

// Entropy returns the Shannon entropy of label, computing it on first use.
// A nil cache computes it every time.
func (c *EntropyCache) Entropy(label string) float64 {
	if c == nil {
		return stats.ShannonEntropy(label)
	}
	if v, ok := c.m[label]; ok {
		return v
	}
	v := stats.ShannonEntropy(label)
	c.m[label] = v
	return v
}

// Len reports how many distinct labels are cached.
func (c *EntropyCache) Len() int { return len(c.m) }

// Reset drops every cached entropy: the streaming pipeline's day boundary,
// where the tree the labels came from is dropped too.
func (c *EntropyCache) Reset() { c.m = make(map[string]float64) }

// Forget drops the cached entropy of each label of name. Called for every
// name the sliding horizon expires, it keeps the cache within the labels
// of the live tree (a node is pruned only off an expired name's path); a
// label still in use elsewhere is recomputed on next use, to the same value.
func (c *EntropyCache) Forget(name string) {
	for name != "" {
		var label string
		label, name, _ = strings.Cut(name, ".")
		delete(c.m, label)
	}
}

// RunningEntropy accumulates streaming moments over one per-depth label
// group: cardinality, min/max, mean and variance of the label entropies,
// maintained in O(1) per label via Welford's update. It cannot produce
// the median (an order statistic needs the full sample — the day-boundary
// re-score recomputes exactly), but it gives the per-window monitoring
// view without retaining the label set.
type RunningEntropy struct {
	n        int
	min, max float64
	mean, m2 float64
}

// Add folds one label's entropy into the moments.
func (r *RunningEntropy) Add(entropy float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = entropy, entropy
	} else {
		if entropy < r.min {
			r.min = entropy
		}
		if entropy > r.max {
			r.max = entropy
		}
	}
	delta := entropy - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (entropy - r.mean)
}

// Cardinality returns how many labels were folded in.
func (r *RunningEntropy) Cardinality() int { return r.n }

// Min and Max return the extreme entropies (0 when empty).
func (r *RunningEntropy) Min() float64 {
	if r.n == 0 {
		return 0
	}
	return r.min
}

// Max returns the largest folded entropy (0 when empty).
func (r *RunningEntropy) Max() float64 {
	if r.n == 0 {
		return 0
	}
	return r.max
}

// Mean returns the running mean entropy.
func (r *RunningEntropy) Mean() float64 { return r.mean }

// Variance returns the running population variance (matching
// stats.Variance's convention).
func (r *RunningEntropy) Variance() float64 {
	if r.n == 0 {
		return 0
	}
	v := r.m2 / float64(r.n)
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	return v
}
