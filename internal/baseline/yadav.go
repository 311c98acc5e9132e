package baseline

import (
	"errors"
	"math"
	"sort"

	"dnsnoise/internal/dnsname"
)

// ErrNoTraining reports an unusable training set for the Yadav detector.
var ErrNoTraining = errors.New("baseline: need benign names and labeled zones")

// YadavDetector is a simplified reimplementation of Yadav, Reddy, Reddy and
// Ranjan's detector for algorithmically generated domain names (IMC 2010):
// for each zone, measure the Kullback-Leibler divergence between the
// character distribution of the zone's child labels and a benign
// distribution learned from known-good names, plus the expected Jaccard
// similarity of label bigram sets. A zone whose names diverge enough is
// flagged as algorithmically generated.
//
// The detector sees only NAME STRINGS — no cache behaviour — which is
// exactly the gap the paper points out: "Disposable domains are not only
// generated by an algorithm, but also have low cache hit rate."
type YadavDetector struct {
	benignUnigram [256]float64
	threshold     float64
	fitted        bool
}

// labelsUnder extracts the child labels (the labels adjacent to the zone)
// from a set of names under a zone.
func labelsUnder(zone string, names []string) []string {
	out := make([]string, 0, len(names))
	zoneDepth := dnsname.Depth(zone)
	for _, name := range names {
		depth := dnsname.Depth(name)
		if depth <= zoneDepth {
			continue
		}
		// The label immediately left of the zone.
		out = append(out, dnsname.Labels(name)[depth-zoneDepth-1])
	}
	return out
}

// Score computes the detector's divergence score for a set of labels:
// KL(label distribution || benign) + (1 - mean pairwise bigram Jaccard),
// matching the structure (not the constants) of the original metrics.
func (y *YadavDetector) Score(labels []string) float64 {
	if len(labels) == 0 {
		return 0
	}
	return y.klDivergence(labels) + (1 - meanBigramJaccard(labels))
}

// klDivergence computes KL(P || benign) over character unigrams with
// add-one smoothing.
func (y *YadavDetector) klDivergence(labels []string) float64 {
	var counts [256]float64
	total := 0.0
	for _, l := range labels {
		for i := 0; i < len(l); i++ {
			counts[l[i]]++
			total++
		}
	}
	if total == 0 {
		return 0
	}
	var kl float64
	for c := 0; c < 256; c++ {
		if counts[c] == 0 {
			continue
		}
		p := counts[c] / total
		q := y.benignUnigram[c]
		kl += p * math.Log2(p/q)
	}
	return kl
}

// meanBigramJaccard averages the Jaccard similarity of character-bigram
// sets over up to 64 adjacent label pairs. Algorithmic labels share almost
// no bigrams; human labels (www, mail, shop...) overlap heavily.
func meanBigramJaccard(labels []string) float64 {
	if len(labels) < 2 {
		return 1
	}
	pairs := len(labels) - 1
	if pairs > 64 {
		pairs = 64
	}
	var sum float64
	for i := 0; i < pairs; i++ {
		sum += bigramJaccard(labels[i], labels[i+1])
	}
	return sum / float64(pairs)
}

func bigramJaccard(a, b string) float64 {
	sa, sb := bigramSet(a), bigramSet(b)
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	inter := 0
	for g := range sa {
		if _, ok := sb[g]; ok {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

func bigramSet(s string) map[[2]byte]struct{} {
	out := make(map[[2]byte]struct{}, len(s))
	for i := 0; i+1 < len(s); i++ {
		out[[2]byte{s[i], s[i+1]}] = struct{}{}
	}
	return out
}

// LabeledZoneNames is one training zone: its origin, observed names, and
// ground-truth label.
type LabeledZoneNames struct {
	Zone       string
	Names      []string
	Disposable bool
}

// Fit learns the benign character distribution from the non-disposable
// zones and picks the score threshold that maximizes training accuracy —
// the supervised analogue of the original paper's threshold selection.
func (y *YadavDetector) Fit(zones []LabeledZoneNames) error {
	var benignChars [256]float64
	benignTotal := 0.0
	pos := 0
	for _, z := range zones {
		if z.Disposable {
			pos++
			continue
		}
		for _, l := range labelsUnder(z.Zone, z.Names) {
			for i := 0; i < len(l); i++ {
				benignChars[l[i]]++
				benignTotal++
			}
		}
	}
	if pos == 0 || pos == len(zones) || benignTotal == 0 {
		return ErrNoTraining
	}
	// Add-one smoothing keeps KL finite for unseen characters.
	for c := 0; c < 256; c++ {
		y.benignUnigram[c] = (benignChars[c] + 1) / (benignTotal + 256)
	}

	type scored struct {
		score float64
		pos   bool
	}
	all := make([]scored, 0, len(zones))
	for _, z := range zones {
		all = append(all, scored{
			score: y.Score(labelsUnder(z.Zone, z.Names)),
			pos:   z.Disposable,
		})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].score < all[j].score })
	// Sweep thresholds between adjacent scores.
	bestAcc, bestThr := -1.0, 0.0
	for i := 0; i <= len(all); i++ {
		var thr float64
		switch {
		case i == 0:
			thr = all[0].score - 1
		case i == len(all):
			thr = all[len(all)-1].score + 1
		default:
			thr = (all[i-1].score + all[i].score) / 2
		}
		correct := 0
		for _, s := range all {
			if (s.score > thr) == s.pos {
				correct++
			}
		}
		if acc := float64(correct) / float64(len(all)); acc > bestAcc {
			bestAcc, bestThr = acc, thr
		}
	}
	y.threshold = bestThr
	y.fitted = true
	return nil
}

// Detect reports whether the zone's names look algorithmically generated.
func (y *YadavDetector) Detect(zone string, names []string) (bool, float64, error) {
	if !y.fitted {
		return false, 0, ErrNoTraining
	}
	score := y.Score(labelsUnder(zone, names))
	return score > y.threshold, score, nil
}
