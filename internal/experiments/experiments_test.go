package experiments

import (
	"strings"
	"testing"

	"dnsnoise/internal/sim"
)

// tinyScale keeps individual experiment tests fast.
func tinyScale() sim.Scale {
	return sim.Scale{
		Seed:               15,
		NonDisposableZones: 220,
		DisposableZones:    60,
		HostsPerZoneMax:    36,
		Clients:            300,
		BaseEventsPerDay:   40_000,
		Servers:            2,
		CacheSize:          1 << 15,
	}
}

// tinyRun is the tests' one reproduction: each dataset it holds is
// simulated once, for every test that reads it. Its bootstrap spans six
// December days.
var tinyRun = NewRun(tinyScale(), 6)

func TestFig2Shape(t *testing.T) {
	res, err := Fig2TrafficProfile(tinyScale(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Caching must make above traffic much smaller than below.
	if res.AboveTotal*2 >= res.BelowTotal {
		t.Errorf("above (%d) should be well below below (%d)", res.AboveTotal, res.BelowTotal)
	}
	// NXDOMAIN concentrates above (no negative caching).
	if res.AboveNXShare <= res.BelowNXShare {
		t.Errorf("NX share above (%.3f) should exceed below (%.3f)", res.AboveNXShare, res.BelowNXShare)
	}
	// At simulation volume the positive hit rate is far below the ISP's,
	// so the NXDOMAIN concentration above is milder than the paper's 40%;
	// the mechanism (no negative caching) still has to make it a
	// significant share.
	if res.AboveNXShare < 0.10 {
		t.Errorf("NX share above = %.3f, want a significant share (paper ~40%%)", res.AboveNXShare)
	}
	// Diurnal swing must be visible.
	if res.PeakTroughRatio < 1.5 {
		t.Errorf("peak/trough = %.2f, want a clear diurnal swing", res.PeakTroughRatio)
	}
	// Akamai + Google together stay below half of traffic.
	var akamai, google, all uint64
	for _, p := range res.BelowSeries["akamai"] {
		akamai += p.Volume
	}
	for _, p := range res.BelowSeries["google"] {
		google += p.Volume
	}
	for _, p := range res.BelowSeries["all"] {
		all += p.Volume
	}
	if akamai+google >= all/2 {
		t.Errorf("akamai+google = %d of %d, paper: less than half", akamai+google, all)
	}
	if !strings.Contains(res.Render(), "Figure 2") {
		t.Error("Render missing title")
	}
}

func TestFig3Shape(t *testing.T) {
	res, err := tinyRun.Fig3LongTail()
	if err != nil {
		t.Fatal(err)
	}
	if res.Records == 0 {
		t.Fatal("no records")
	}
	// The long tail must dominate, as in the paper (>90%). The simulated
	// day is ~5 orders of magnitude smaller, so accept a looser floor.
	if res.TailUnder10 < 0.5 {
		t.Errorf("tail share = %.3f, want the majority of RRs in the tail", res.TailUnder10)
	}
	if res.ZeroDHRFrac < 0.3 {
		t.Errorf("zero-DHR share = %.3f, want a large share (paper ~89%%)", res.ZeroDHRFrac)
	}
	if len(res.VolumeCDF) == 0 || len(res.DHRCDF) == 0 {
		t.Error("CDFs empty")
	}
}

func TestFig4Shape(t *testing.T) {
	res, err := Fig4CHR(tinyScale(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// A majority of CHR values sit below 0.5 (paper: 58%).
	if res.DayBelowHalf < 0.4 || res.DayBelowHalf > 0.95 {
		t.Errorf("CHR below 0.5 = %.3f, want a majority", res.DayBelowHalf)
	}
	if len(res.AggregateCDF) == 0 {
		t.Error("aggregate CDF empty")
	}
}

func TestFig5Shape(t *testing.T) {
	res, err := tinyRun.Fig5NewRRs()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Days) != 6 {
		t.Fatalf("days = %d, want 6", len(res.Days))
	}
	// Overall new RRs decline as bounded pools deplete; Akamai declines
	// hard; Google grows with the experiment ramp.
	if res.AllTrend >= 1.0 {
		t.Errorf("all trend = %.2f, want < 1 (decline)", res.AllTrend)
	}
	if res.AkamaiTrend >= res.AllTrend {
		t.Errorf("akamai trend %.2f should decline harder than all %.2f", res.AkamaiTrend, res.AllTrend)
	}
	if res.GoogleTrend <= 1.0 {
		t.Errorf("google trend = %.2f, want > 1 (growth)", res.GoogleTrend)
	}
}

func TestFig7Shape(t *testing.T) {
	res, err := tinyRun.Fig7LabeledCHR()
	if err != nil {
		t.Fatal(err)
	}
	// The discriminative separation the classifier depends on.
	if res.DisposableZeroFrac < 0.75 {
		t.Errorf("disposable zero-CHR = %.3f, want >= 0.75 (paper: 90%%)", res.DisposableZeroFrac)
	}
	if res.NonDispAboveThreshold < 0.15 {
		t.Errorf("non-disposable CHR above 0.58 = %.3f, want a solid share (paper: 45%%)", res.NonDispAboveThreshold)
	}
}

func TestFig12Shape(t *testing.T) {
	res, err := tinyRun.Fig12ROC()
	if err != nil {
		t.Fatal(err)
	}
	if res.Examples < 40 || res.Positives == 0 {
		t.Fatalf("examples = %d (%d positive)", res.Examples, res.Positives)
	}
	if res.AUC < 0.9 {
		t.Errorf("AUC = %.3f, want >= 0.9", res.AUC)
	}
	c := res.At05
	// The tiny test scale yields only ~35 positive examples, so pooled-CV
	// TPR carries +-1-2 example noise; the default scale reproduces the
	// paper's 97%/1% operating point (see EXPERIMENTS.md).
	if c.TPR() < 0.78 {
		t.Errorf("TPR@0.5 = %.3f, want >= 0.78 (paper: 97%%)", c.TPR())
	}
	if c.FPR() > 0.10 {
		t.Errorf("FPR@0.5 = %.3f, want <= 0.10 (paper: 1%%)", c.FPR())
	}
	if len(res.ModelSelection) != 5 {
		t.Errorf("model selection rows = %d, want 5", len(res.ModelSelection))
	}
	if len(res.ROC) < 3 {
		t.Error("ROC curve too short")
	}
}

func TestGrowthStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("growth study runs 7 simulated days")
	}
	res, err := tinyRun.GrowthStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dates) != 6 {
		t.Fatalf("dates = %d, want 6", len(res.Dates))
	}
	first, last := res.Dates[0], res.Dates[len(res.Dates)-1]
	// Growth directions (Figure 13).
	if last.RRDisposableFrac <= first.RRDisposableFrac {
		t.Errorf("RR disposable share should grow: %.3f -> %.3f",
			first.RRDisposableFrac, last.RRDisposableFrac)
	}
	if last.ResolvedDisposableFrac <= first.ResolvedDisposableFrac {
		t.Errorf("resolved share should grow: %.3f -> %.3f",
			first.ResolvedDisposableFrac, last.ResolvedDisposableFrac)
	}
	// Ordering within a date (paper: queried < resolved < RR share).
	for _, d := range res.Dates {
		if !(d.QueriedDisposableFrac < d.ResolvedDisposableFrac) {
			t.Errorf("%s: queried %.3f !< resolved %.3f", d.Label,
				d.QueriedDisposableFrac, d.ResolvedDisposableFrac)
		}
		if !(d.ResolvedDisposableFrac < d.RRDisposableFrac) {
			t.Errorf("%s: resolved %.3f !< RR %.3f", d.Label,
				d.ResolvedDisposableFrac, d.RRDisposableFrac)
		}
	}
	// Tables I/II shapes: the tail dominates and disposable RRs live in it.
	for _, d := range res.Dates {
		if d.VolumeTail.TailFrac < 0.5 {
			t.Errorf("%s: volume tail = %.3f, want majority", d.Label, d.VolumeTail.TailFrac)
		}
		if d.VolumeTail.DisposableTailFrac < 0.9 {
			t.Errorf("%s: disposable-in-tail = %.3f, want ~96-98%%", d.Label, d.VolumeTail.DisposableTailFrac)
		}
		if d.DHRTail.DisposableTailFrac < 0.85 {
			t.Errorf("%s: disposable-in-zero-DHR-tail = %.3f, want ~94-97%%", d.Label, d.DHRTail.DisposableTailFrac)
		}
	}
	// Figure 14: TTL mode moves from 1s (first date) to 300s (last date).
	firstHist, lastHist := first.TTLHistogram, last.TTLHistogram
	if firstHist[1] == 0 {
		t.Error("first date should have TTL=1 disposable RRs")
	}
	if lastHist[300] <= lastHist[1] {
		t.Errorf("last date TTL mode should be 300s: ttl300=%d ttl1=%d", lastHist[300], lastHist[1])
	}
	// Inventory accumulates.
	if res.TotalZones == 0 || res.TotalE2LDs == 0 {
		t.Error("no zones mined across the study")
	}
	if res.MeanPeriods < 3 {
		t.Errorf("mean periods = %.1f, disposable names should be deep (paper: 7)", res.MeanPeriods)
	}
	for _, render := range []string{res.RenderFig11(), res.RenderFig13(), res.RenderTables(), res.RenderFig14()} {
		if render == "" {
			t.Error("empty render")
		}
	}
}

func TestFig15Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("pdns growth runs 6 simulated days")
	}
	res, err := tinyRun.Fig15PDNSGrowth()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalRRs == 0 {
		t.Fatal("empty store")
	}
	// Disposable records dominate the store after several days (paper: 88%).
	if res.DisposableFrac < 0.5 {
		t.Errorf("disposable store share = %.3f, want majority", res.DisposableFrac)
	}
	// Daily new-RR disposable share grows.
	if res.LastDayNewShare <= res.FirstDayNewShare {
		t.Errorf("new-RR disposable share should grow: %.3f -> %.3f",
			res.FirstDayNewShare, res.LastDayNewShare)
	}
	// Wildcard collapse shrinks the store dramatically.
	if c := res.Collapse; float64(c.After) > 0.6*float64(c.Before) {
		t.Errorf("collapse kept %d of %d records, want a large reduction (paper: 0.7%%)", c.After, c.Before)
	}
}

func TestCachePressureShape(t *testing.T) {
	res, err := tinyRun.CachePressure([]float64{0, 0.15, 0.35})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if first.PrematureEvictions != 0 {
		t.Errorf("with no disposable traffic, premature evictions by disposables = %d, want 0",
			first.PrematureEvictions)
	}
	if last.PrematureEvictions <= first.PrematureEvictions {
		t.Errorf("premature evictions should grow with disposable share: %d -> %d",
			first.PrematureEvictions, last.PrematureEvictions)
	}
	if last.HitRate >= first.HitRate {
		t.Errorf("hit rate should degrade: %.3f -> %.3f", first.HitRate, last.HitRate)
	}
	// The degradation must reach ordinary traffic: non-disposable queries
	// miss more often because their entries were evicted early.
	if last.NonDispMissRate <= first.NonDispMissRate {
		t.Errorf("non-disposable miss rate should inflate: %.3f -> %.3f",
			first.NonDispMissRate, last.NonDispMissRate)
	}
}

func TestDNSSECLoadShape(t *testing.T) {
	res, err := tinyRun.DNSSECLoad()
	if err != nil {
		t.Fatal(err)
	}
	if res.Validations == 0 {
		t.Fatal("no validations performed")
	}
	if res.ValidationErrs != 0 {
		t.Errorf("validation errors = %d, want 0", res.ValidationErrs)
	}
	// Nearly every disposable answer forces a fresh validation whose result
	// is never reused.
	if res.ValidationsPerDisp < 0.8 || res.ValidationsPerDisp > 1.5 {
		t.Errorf("validations per disposable miss = %.2f, want ~1", res.ValidationsPerDisp)
	}
}

func TestFeatureAblationShape(t *testing.T) {
	res, err := tinyRun.FeatureAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var all, treeOnly, chrOnly AblationRow
	for _, row := range res.Rows {
		switch row.Name {
		case "all-features":
			all = row
		case "tree-structure-only":
			treeOnly = row
		case "cache-hit-rate-only":
			chrOnly = row
		}
	}
	// The combined vector must not be materially worse than either family,
	// and both families alone must carry real signal.
	if all.AUC < treeOnly.AUC-0.1 || all.AUC < chrOnly.AUC-0.1 {
		t.Errorf("all-features AUC %.3f should be competitive (tree %.3f, chr %.3f)",
			all.AUC, treeOnly.AUC, chrOnly.AUC)
	}
	if treeOnly.AUC < 0.7 || chrOnly.AUC < 0.7 {
		t.Errorf("single-family AUCs too weak: tree %.3f, chr %.3f", treeOnly.AUC, chrOnly.AUC)
	}
}

func TestSharedCacheAblationShape(t *testing.T) {
	res, err := tinyRun.SharedCacheAblation()
	if err != nil {
		t.Fatal(err)
	}
	// A single shared cache of equal total capacity should hit at least as
	// often as partitioned caches.
	if res.Shared+0.02 < res.Independent {
		t.Errorf("shared cache hit rate %.3f should be >= independent %.3f",
			res.Shared, res.Independent)
	}
	if !strings.Contains(res.Render(), "hit rate") {
		t.Error("render missing header")
	}
}

func TestCacheMitigationShape(t *testing.T) {
	res, err := tinyRun.CacheMitigation(0.3)
	if err != nil {
		t.Fatal(err)
	}
	if res.MinedZones == 0 {
		t.Fatal("mitigation learned no zones")
	}
	// The mitigation reclaims capacity: fewer premature evictions of
	// useful entries, a materially better non-disposable miss rate, and a
	// higher overall hit rate. (Evictions do not vanish — when the cache
	// is full, every insert evicts someone — the win is WHO gets kept.)
	if res.MitigatedPremature >= res.BasePremature {
		t.Errorf("premature evictions should drop: %d -> %d",
			res.BasePremature, res.MitigatedPremature)
	}
	if res.MitigatedNonDispMissRate >= res.BaseNonDispMissRate-0.01 {
		t.Errorf("non-disposable miss rate should improve materially: %.3f -> %.3f",
			res.BaseNonDispMissRate, res.MitigatedNonDispMissRate)
	}
	if res.MitigatedHitRate <= res.BaseHitRate {
		t.Errorf("hit rate should improve: %.3f -> %.3f", res.BaseHitRate, res.MitigatedHitRate)
	}
	if !strings.Contains(res.Render(), "mitigation") {
		t.Error("render missing title")
	}
}

func TestCrossNetworkShape(t *testing.T) {
	res, err := CrossNetwork(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if res.ZonesA == 0 || res.ZonesB == 0 {
		t.Fatal("a network mined no zones")
	}
	// Globally disposable zones must overlap substantially across vantage
	// points.
	if res.Jaccard < 0.3 {
		t.Errorf("Jaccard = %.2f, want real agreement", res.Jaccard)
	}
	if res.Shared == 0 {
		t.Error("no shared zones")
	}
	// Most agreed-upon zones must be genuinely disposable. (Agreement does
	// not fully purify the set: zones that merely LOOK disposable — cold,
	// one-time-use names — look that way from every vantage point, a
	// systematic rather than random error.)
	if res.SharedPrecision < 0.5 {
		t.Errorf("shared precision = %.2f, want majority true positives", res.SharedPrecision)
	}
}

func TestRenewalModelShape(t *testing.T) {
	res, err := tinyRun.RenewalModel()
	if err != nil {
		t.Fatal(err)
	}
	if res.Compare.N == 0 || res.HotCompare.N == 0 {
		t.Fatal("no predictions")
	}
	// Hot records carry enough arrivals for the renewal model to track the
	// black-box measurement.
	if res.HotCompare.Correlation < 0.5 {
		t.Errorf("hot-record correlation = %.3f, want real agreement", res.HotCompare.Correlation)
	}
	if res.HotCompare.MeanAbsErr > 0.35 {
		t.Errorf("hot-record MAE = %.3f, implausibly large", res.HotCompare.MeanAbsErr)
	}
	if !strings.Contains(res.Render(), "renewal") {
		t.Error("render missing title")
	}
}

func TestTaxonomyShape(t *testing.T) {
	res, err := tinyRun.Taxonomy()
	if err != nil {
		t.Fatal(err)
	}
	total := res.CanonicalShare + res.OverloadedShare + res.UnwantedShare
	if total < 0.999 || total > 1.001 {
		t.Errorf("class shares sum to %.4f", total)
	}
	if res.CanonicalShare < 0.5 {
		t.Errorf("canonical share = %.3f, should dominate", res.CanonicalShare)
	}
	// The paper's containment argument: a material disposable share escapes
	// the overloaded class entirely.
	if res.DisposableInCanonical < 0.2 {
		t.Errorf("disposable-in-canonical = %.3f; disposable should be broader than overloaded",
			res.DisposableInCanonical)
	}
	if res.DisposableInOverloaded < 0.1 {
		t.Errorf("disposable-in-overloaded = %.3f; reputation/DNSBL traffic should land there",
			res.DisposableInOverloaded)
	}
}

func TestBaselineShape(t *testing.T) {
	res, err := tinyRun.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	if res.Zones < 50 {
		t.Fatalf("labeled zones = %d", res.Zones)
	}
	// Both detectors must work; the miner must not be worse on either axis
	// by a wide margin, and the CDN trap must separate them.
	if res.MinerTPR < 0.8 {
		t.Errorf("miner TPR = %.3f", res.MinerTPR)
	}
	if res.YadavTPR < 0.5 {
		t.Errorf("yadav TPR = %.3f; the name-only detector should catch token zones", res.YadavTPR)
	}
	if res.CDNZones == 0 || res.HotCDNNames == 0 {
		t.Fatalf("CDN observations missing: zones=%d hot=%d", res.CDNZones, res.HotCDNNames)
	}
	// Name shape condemns whole CDN zones outright; the miner's judgment
	// must at least track reuse: genuinely reused CDN names get flagged
	// less often than unreused ones. (Some reused names are still swept
	// because Algorithm 1 classifies whole same-depth groups — the paper's
	// own 0.6% CDN false-positive class.)
	if res.CDNFlaggedYadav == 0 {
		t.Error("yadav should flag algorithmic CDN zones")
	}
	hotRate := frac(res.HotCDNFlaggedMiner, res.HotCDNNames)
	coldRate := frac(res.ColdCDNFlaggedMiner, res.ColdCDNNames)
	if hotRate >= coldRate {
		t.Errorf("miner flag rate on reused CDN names (%.2f) should be below unreused (%.2f)",
			hotRate, coldRate)
	}
}

func TestClientCardinalityShape(t *testing.T) {
	res, err := tinyRun.ClientCardinality()
	if err != nil {
		t.Fatal(err)
	}
	// Disposable names are one-time: a single client each.
	if res.DisposableMedian > 1 {
		t.Errorf("disposable median clients = %.1f, want 1", res.DisposableMedian)
	}
	if res.DisposableHandful < 0.95 {
		t.Errorf("disposable <=3-client share = %.3f, want ~1", res.DisposableHandful)
	}
	// Non-disposable records reach far more clients in aggregate.
	if res.NonDisposableHandful >= res.DisposableHandful {
		t.Errorf("non-disposable handful share (%.3f) should be below disposable (%.3f)",
			res.NonDisposableHandful, res.DisposableHandful)
	}
}

// TestCachePolicySweepVerdict pins the verdict EXPERIMENTS.md records for
// the eviction-policy sweep: under the paper's disposable-heavy mix SIEVE
// never hits less often than LRU, hits strictly more often where the cache
// is smallest, and the two are the same cache where nothing live is evicted.
func TestCachePolicySweepVerdict(t *testing.T) {
	res, err := NewRun(sim.Small(), 0).CachePolicySweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 || len(res.Points)%2 != 0 {
		t.Fatalf("points = %d, want (lru, sieve) pairs", len(res.Points))
	}
	for i := 0; i < len(res.Points); i += 2 {
		lru, sieve := res.Points[i], res.Points[i+1]
		if lru.Policy != "lru" || sieve.Policy != "sieve" || lru.CacheSize != sieve.CacheSize {
			t.Fatalf("cell %d is not an (lru, sieve) pair at one capacity: %+v %+v", i/2, lru, sieve)
		}
		switch {
		case sieve.HitRate < lru.HitRate:
			t.Errorf("cache %d: sieve hit rate %.4f below lru %.4f", lru.CacheSize, sieve.HitRate, lru.HitRate)
		case i == 0 && sieve.HitRate == lru.HitRate:
			t.Errorf("cache %d (smallest): sieve hit rate %.4f not above lru", lru.CacheSize, sieve.HitRate)
		case lru.PrematureEvictions == 0 && sieve.PrematureEvictions == 0 && sieve.HitRate != lru.HitRate:
			t.Errorf("cache %d: nothing evicted early, yet sieve %.4f != lru %.4f", lru.CacheSize, sieve.HitRate, lru.HitRate)
		}
	}
	if last := res.Points[len(res.Points)-1]; last.PrematureEvictions != 0 {
		t.Errorf("cache %d: the largest capacity should evict nothing early, so the equality above is tested", last.CacheSize)
	}
	if !strings.Contains(res.Render(), "LRU and SIEVE") {
		t.Error("render missing title")
	}
}
