// Package features turns a domain-name-tree group G_k into the statistical
// vector of Section V-A2: six tree-structure features computed from the
// Shannon entropies of the L_k label set, and two cache-hit-rate features
// computed from the group's resource records.
package features

import (
	"dnsnoise/internal/chrstat"
	"dnsnoise/internal/dntree"
	"dnsnoise/internal/stats"
)

// Dim is the dimensionality of a feature vector.
const Dim = 8

// Indexes into Vector.Slice(), usable as ablation masks.
const (
	IdxCardinality = iota
	IdxEntropyMax
	IdxEntropyMin
	IdxEntropyMean
	IdxEntropyMedian
	IdxEntropyVar
	IdxCHRMedian
	IdxCHRZeroFrac
)

// Names lists the feature names in slice order.
var Names = [Dim]string{
	"label_cardinality",
	"entropy_max",
	"entropy_min",
	"entropy_mean",
	"entropy_median",
	"entropy_var",
	"chr_median",
	"chr_zero_frac",
}

// TreeStructureIdx selects the tree-structure feature family.
var TreeStructureIdx = []int{
	IdxCardinality, IdxEntropyMax, IdxEntropyMin,
	IdxEntropyMean, IdxEntropyMedian, IdxEntropyVar,
}

// CacheHitRateIdx selects the cache-hit-rate feature family.
var CacheHitRateIdx = []int{IdxCHRMedian, IdxCHRZeroFrac}

// Vector is one G_k group's feature vector.
type Vector struct {
	// Tree-structure family (over the L_k labels adjacent to the zone).
	Cardinality   float64
	EntropyMax    float64
	EntropyMin    float64
	EntropyMean   float64
	EntropyMedian float64
	EntropyVar    float64
	// Cache-hit-rate family (over the group's resource records).
	CHRMedian   float64
	CHRZeroFrac float64
}

// Slice returns the vector as a fixed-order float slice.
func (v Vector) Slice() []float64 { return v.AppendTo(make([]float64, 0, Dim)) }

// AppendTo appends the vector to dst in Slice order.
func (v Vector) AppendTo(dst []float64) []float64 {
	return append(dst,
		v.Cardinality,
		v.EntropyMax, v.EntropyMin, v.EntropyMean, v.EntropyMedian, v.EntropyVar,
		v.CHRMedian, v.CHRZeroFrac,
	)
}

// Mask returns a copy of the sliced vector keeping only the listed indexes.
func Mask(vec []float64, keep []int) []float64 {
	out := make([]float64, 0, len(keep))
	for _, idx := range keep {
		out = append(out, vec[idx])
	}
	return out
}

// FromGroup computes the feature vector of one group. byName indexes the
// day's RR statistics by owner name (chrstat.Collector.ByName); names with
// no recorded RRs contribute nothing to the CHR family.
func FromGroup(g dntree.Group, byName map[string][]*chrstat.RRStat) Vector {
	return new(Scratch).FromGroup(g, byName)
}

// Scratch holds the two samples an extraction builds — the label entropies
// and the CHR sample — for a caller that extracts group after group (the
// miner) to reuse. The zero value is ready; not safe for concurrent use.
type Scratch struct {
	entropies, chr []float64
}

// FromGroup is the one extraction body: the same arithmetic in the same
// order whatever the scratch held, so batch and streaming vectors are
// bit-identical.
func (sc *Scratch) FromGroup(g dntree.Group, byName map[string][]*chrstat.RRStat) Vector {
	var v Vector

	// Tree-structure features over the adjacent label set L_k.
	entropies := sc.entropies[:0]
	for _, label := range g.Labels {
		entropies = append(entropies, stats.ShannonEntropy(label))
	}
	sc.entropies = entropies
	v.Cardinality = float64(len(g.Labels))
	if len(entropies) > 0 {
		min, max, err := stats.MinMax(entropies)
		if err == nil {
			v.EntropyMin, v.EntropyMax = min, max
		}
		v.EntropyMean = stats.Mean(entropies)
		v.EntropyVar = stats.Variance(entropies)
		// Last: the sums above run in label order, the median reorders.
		v.EntropyMedian = stats.MedianInPlace(entropies)
	}

	// Cache-hit-rate features over the group's RRs: the CHR sample repeats
	// each RR's DHR once per miss (eq. 2); the zero fraction is computed
	// over distinct RRs as the paper states ("percentage of RRs that have
	// zero cache hit rate").
	chrSample := sc.chr[:0]
	var rrs, zeroRRs int
	for _, name := range g.Names {
		for _, st := range byName[name] {
			rrs++
			dhr := st.DHR()
			if dhr == 0 {
				zeroRRs++
			}
			misses := int(st.Misses())
			// A record that was answered below but never missed during the
			// window still describes caching behaviour; count it once so
			// all-hit groups are not empty.
			if misses == 0 {
				misses = 1
			}
			const perRRCap = 64
			if misses > perRRCap {
				misses = perRRCap
			}
			for i := 0; i < misses; i++ {
				chrSample = append(chrSample, dhr)
			}
		}
	}
	sc.chr = chrSample
	if len(chrSample) > 0 {
		v.CHRMedian = stats.MedianInPlace(chrSample)
	}
	if rrs > 0 {
		v.CHRZeroFrac = float64(zeroRRs) / float64(rrs)
	}
	return v
}

// Example is a labeled training instance for the classifiers.
type Example struct {
	Zone     string
	Depth    int
	Features []float64
	// Disposable is the ground-truth label.
	Disposable bool
}
