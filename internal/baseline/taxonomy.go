// Package baseline implements the two prior systems the paper positions
// itself against (Section II-B):
//
//   - the treetop traffic taxonomy of Plonka & Barford (IMC 2008), which
//     splits DNS traffic into canonical, overloaded and unwanted classes —
//     the paper argues disposable domains are strictly more general than
//     the overloaded class; and
//
//   - the name-only detector of Yadav et al. (IMC 2010) for algorithmically
//     generated domains, which the paper notes cannot capture
//     disposability because it ignores caching behaviour.
//
// Both are used by the evaluation as baselines for the disposable zone
// miner.
package baseline

import (
	"strconv"
	"strings"

	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/resolver"
)

// Class is a treetop traffic class.
type Class int

// The three treetop classes.
const (
	// Canonical traffic maps names to routable addresses.
	Canonical Class = iota + 1
	// Overloaded traffic uses DNS for purposes beyond name-to-IP mapping
	// (blocklist verdicts, signaling answers in reserved space, TXT
	// payloads, reversed-IP query names).
	Overloaded
	// Unwanted traffic is unsuccessful resolution (NXDOMAIN et al.).
	Unwanted
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Canonical:
		return "canonical"
	case Overloaded:
		return "overloaded"
	case Unwanted:
		return "unwanted"
	default:
		return "unknown"
	}
}

// Classify assigns one observation to a treetop class.
func Classify(ob resolver.Observation) Class {
	if ob.RCode != dnsmsg.RCodeNoError {
		return Unwanted
	}
	if ob.RR.Name == "" {
		return Unwanted // NODATA carries no mapping either
	}
	if isOverloaded(ob.RR) {
		return Overloaded
	}
	return Canonical
}

// isOverloaded applies the treetop heuristics for non-mapping usage.
func isOverloaded(rr dnsmsg.RR) bool {
	switch rr.Type {
	case dnsmsg.TypeTXT:
		return true // text payloads are not address mappings
	case dnsmsg.TypeA:
		// Verdict-style answers in loopback/reserved space (the DNSBL and
		// file-reputation convention the paper describes for McAfee).
		if first := rr.RData.IPv4()[0]; first == 127 || first == 0 {
			return true
		}
	case dnsmsg.TypeAAAA:
		if text := rr.RData.Text(); strings.HasPrefix(text, "100:") || strings.HasPrefix(text, "0:") {
			return true
		}
	}
	// Reversed-IPv4 query names (a.b.c.d.<zone>) signal blocklist lookups
	// regardless of the answer.
	return looksReversedIP(rr.Name)
}

// looksReversedIP reports whether the name starts with four dotted octets.
func looksReversedIP(name string) bool {
	labels := strings.SplitN(name, ".", 5)
	if len(labels) < 5 {
		return false
	}
	for _, l := range labels[:4] {
		v, err := strconv.Atoi(l)
		if err != nil || v < 0 || v > 255 {
			return false
		}
		// Reject octets with leading zeros beyond "0" itself, which are
		// tokens rather than octets.
		if len(l) > 1 && l[0] == '0' {
			return false
		}
	}
	return true
}

// TaxonomyCounter tallies observations per class, split by the ground-truth
// disposable label, to measure the overlap between "overloaded" and
// "disposable".
type TaxonomyCounter struct {
	// Counts[class] and DisposableCounts[class], indexed by Class.
	Counts           [4]uint64
	DisposableCounts [4]uint64
}

// Tap returns a resolver tap feeding the counter.
func (t *TaxonomyCounter) Tap() resolver.Tap {
	return resolver.TapFunc(func(ob resolver.Observation) {
		c := Classify(ob)
		t.Counts[c]++
		if ob.Category == 1 { // cache.CategoryDisposable
			t.DisposableCounts[c]++
		}
	})
}

// Share returns the class's fraction of all classified observations.
func (t *TaxonomyCounter) Share(c Class) float64 {
	var total uint64
	for _, n := range t.Counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	return float64(t.Counts[c]) / float64(total)
}

// DisposableRecall returns the fraction of disposable observations the
// class captures — the paper's point is that Overloaded alone captures only
// part of the disposable phenomenon.
func (t *TaxonomyCounter) DisposableRecall(c Class) float64 {
	var total uint64
	for _, n := range t.DisposableCounts {
		total += n
	}
	if total == 0 {
		return 0
	}
	return float64(t.DisposableCounts[c]) / float64(total)
}
