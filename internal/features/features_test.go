package features

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"dnsnoise/internal/cache"
	"dnsnoise/internal/chrstat"
	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/dntree"
	"dnsnoise/internal/resolver"
)

func collectorWith(t *testing.T, belowAbove map[string][2]int) *chrstat.Collector {
	t.Helper()
	c := chrstat.NewCollector()
	for name, counts := range belowAbove {
		rr := dnsmsg.RR{Name: name, Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN, TTL: 60, RData: dnsmsg.IPv4(127, 0, 0, 1)}
		for i := 0; i < counts[0]; i++ {
			c.ObserveBelow(resolver.Observation{QName: name, RR: rr, RCode: dnsmsg.RCodeNoError, Category: cache.CategoryDisposable})
		}
		for i := 0; i < counts[1]; i++ {
			c.ObserveAbove(resolver.Observation{QName: name, RR: rr, RCode: dnsmsg.RCodeNoError, Category: cache.CategoryDisposable})
		}
	}
	return c
}

func TestVectorShape(t *testing.T) {
	var v Vector
	if len(v.Slice()) != Dim {
		t.Fatalf("Slice len = %d, want %d", len(v.Slice()), Dim)
	}
	if len(Names) != Dim {
		t.Fatalf("Names len = %d, want %d", len(Names), Dim)
	}
	if len(TreeStructureIdx)+len(CacheHitRateIdx) != Dim {
		t.Error("feature families must partition the vector")
	}
}

func TestFromGroupTreeFeatures(t *testing.T) {
	g := dntree.Group{
		Zone:   "example.com",
		Depth:  3,
		Names:  []string{"abab.example.com", "zzzz.example.com"},
		Labels: []string{"abab", "zzzz"},
	}
	v := FromGroup(g, nil)
	if v.Cardinality != 2 {
		t.Errorf("Cardinality = %v, want 2", v.Cardinality)
	}
	// H("abab") = 1 bit, H("zzzz") = 0 bits.
	if v.EntropyMax != 1 || v.EntropyMin != 0 {
		t.Errorf("entropy max/min = %v/%v, want 1/0", v.EntropyMax, v.EntropyMin)
	}
	if v.EntropyMean != 0.5 || v.EntropyMedian != 0.5 {
		t.Errorf("entropy mean/median = %v/%v, want 0.5/0.5", v.EntropyMean, v.EntropyMedian)
	}
	if v.EntropyVar != 0.25 {
		t.Errorf("entropy var = %v, want 0.25", v.EntropyVar)
	}
}

func TestFromGroupCHRFeaturesDisposableShape(t *testing.T) {
	// Three one-shot records: 1 query below, 1 miss above each -> DHR 0.
	c := collectorWith(t, map[string][2]int{
		"tok1.d.test": {1, 1},
		"tok2.d.test": {1, 1},
		"tok3.d.test": {1, 1},
	})
	g := dntree.Group{
		Zone:   "d.test",
		Depth:  3,
		Names:  []string{"tok1.d.test", "tok2.d.test", "tok3.d.test"},
		Labels: []string{"tok1", "tok2", "tok3"},
	}
	v := FromGroup(g, c.ByName())
	if v.CHRMedian != 0 {
		t.Errorf("CHRMedian = %v, want 0 for one-shot records", v.CHRMedian)
	}
	if v.CHRZeroFrac != 1 {
		t.Errorf("CHRZeroFrac = %v, want 1", v.CHRZeroFrac)
	}
}

func TestFromGroupCHRFeaturesPopularShape(t *testing.T) {
	// Hot records: 10 queries, 1 miss -> DHR 0.9.
	c := collectorWith(t, map[string][2]int{
		"www.ok.test":  {10, 1},
		"mail.ok.test": {20, 2},
	})
	g := dntree.Group{
		Zone:   "ok.test",
		Depth:  3,
		Names:  []string{"www.ok.test", "mail.ok.test"},
		Labels: []string{"www", "mail"},
	}
	v := FromGroup(g, c.ByName())
	if v.CHRMedian != 0.9 {
		t.Errorf("CHRMedian = %v, want 0.9", v.CHRMedian)
	}
	if v.CHRZeroFrac != 0 {
		t.Errorf("CHRZeroFrac = %v, want 0", v.CHRZeroFrac)
	}
}

func TestFromGroupAllHitRecordsStillCount(t *testing.T) {
	// A record with zero misses (never seen above) must still contribute a
	// CHR sample entry.
	c := collectorWith(t, map[string][2]int{"www.ok.test": {5, 0}})
	g := dntree.Group{
		Zone: "ok.test", Depth: 3,
		Names: []string{"www.ok.test"}, Labels: []string{"www"},
	}
	v := FromGroup(g, c.ByName())
	if v.CHRMedian != 1 {
		t.Errorf("CHRMedian = %v, want 1 for an all-hit record", v.CHRMedian)
	}
}

func TestFromGroupEmpty(t *testing.T) {
	v := FromGroup(dntree.Group{Zone: "x.test", Depth: 3}, nil)
	for i, val := range v.Slice() {
		if val != 0 || math.IsNaN(val) {
			t.Errorf("feature %s = %v, want 0", Names[i], val)
		}
	}
}

func TestMask(t *testing.T) {
	vec := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	tree := Mask(vec, TreeStructureIdx)
	if len(tree) != 6 || tree[0] != 0 || tree[5] != 5 {
		t.Errorf("tree mask = %v", tree)
	}
	chr := Mask(vec, CacheHitRateIdx)
	if len(chr) != 2 || chr[0] != 6 || chr[1] != 7 {
		t.Errorf("chr mask = %v", chr)
	}
}

// The discriminative property the classifier depends on: disposable groups
// must separate from non-disposable groups in feature space.
func TestDisposableVsNonDisposableSeparation(t *testing.T) {
	c := collectorWith(t, map[string][2]int{
		// Disposable: one-shot, algorithmic labels.
		"13cfus2drmdq3j8cafidezr8l6.d.test": {1, 1},
		"0a9k2m4x8q1z7w5v3c6b1n0m2l.d.test": {1, 1},
		// Non-disposable: hot, human labels.
		"www.ok.test":  {40, 2},
		"mail.ok.test": {25, 1},
	})
	byName := c.ByName()
	disp := FromGroup(dntree.Group{
		Zone: "d.test", Depth: 3,
		Names:  []string{"13cfus2drmdq3j8cafidezr8l6.d.test", "0a9k2m4x8q1z7w5v3c6b1n0m2l.d.test"},
		Labels: []string{"13cfus2drmdq3j8cafidezr8l6", "0a9k2m4x8q1z7w5v3c6b1n0m2l"},
	}, byName)
	nonDisp := FromGroup(dntree.Group{
		Zone: "ok.test", Depth: 3,
		Names:  []string{"www.ok.test", "mail.ok.test"},
		Labels: []string{"www", "mail"},
	}, byName)

	if disp.EntropyMean <= nonDisp.EntropyMean {
		t.Errorf("disposable entropy %.2f should exceed non-disposable %.2f",
			disp.EntropyMean, nonDisp.EntropyMean)
	}
	if disp.CHRMedian >= nonDisp.CHRMedian {
		t.Errorf("disposable CHR median %.2f should be below non-disposable %.2f",
			disp.CHRMedian, nonDisp.CHRMedian)
	}
	if disp.CHRZeroFrac <= nonDisp.CHRZeroFrac {
		t.Errorf("disposable zero-CHR frac %.2f should exceed %.2f",
			disp.CHRZeroFrac, nonDisp.CHRZeroFrac)
	}
}

// TestScratchReuseBitIdentical pins the streaming equivalence property at
// the feature layer: the miner's way — one Scratch across groups of every
// size, in either order — must produce the exact same vector (==, not
// approximately) as a fresh extraction.
func TestScratchReuseBitIdentical(t *testing.T) {
	tr := dntree.New(nil)
	col := chrstat.NewCollector()
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("u%08x.api.zone.example.com", i*2654435761)
		if i%4 == 0 {
			name = fmt.Sprintf("h%d.zone.example.com", i)
		}
		tr.Insert(name)
		ob := resolver.Observation{
			QName: name,
			RR:    dnsmsg.RR{Name: name, Type: dnsmsg.TypeA, RData: dnsmsg.IPv4(10, 0, 0, 1), TTL: 30},
		}
		col.ObserveBelow(ob)
		if i%3 == 0 {
			col.ObserveAbove(ob)
		}
	}
	byName := col.ByName()
	groups := tr.GroupsUnder("example.com")
	if len(groups) < 2 {
		t.Fatalf("%d groups, want several to reuse the scratch across", len(groups))
	}
	var sc Scratch
	for pass := 0; pass < 2; pass++ {
		for _, g := range groups {
			if got, want := sc.FromGroup(g, byName), FromGroup(g, byName); got != want {
				t.Fatalf("pass %d depth %d: reused scratch %+v != fresh %+v", pass, g.Depth, got, want)
			}
		}
		slices.Reverse(groups)
	}
}
