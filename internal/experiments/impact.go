package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"dnsnoise/internal/cache"
	"dnsnoise/internal/core"
	"dnsnoise/internal/features"
	"dnsnoise/internal/pdns"
	"dnsnoise/internal/resolver"
)

// --- Figure 15 + Section VI-C: passive DNS database growth ----------------

// Fig15Result tracks the 13-day pDNS bootstrap and the wildcard mitigation.
type Fig15Result struct {
	Days []pdns.DayCounts
	// Store composition after the window.
	TotalRRs         int
	DisposableRRs    int
	DisposableFrac   float64 // paper: 88% after 13 days
	FirstDayNewShare float64 // disposable share of day-1 new RRs (paper: 68%)
	LastDayNewShare  float64 // disposable share of final-day new RRs (paper: 94%)
	StorageBytes     uint64
	// Wildcard collapse (Section VI-C), computed with the MINED zone set.
	Collapse pdns.CollapseResult
}

// Fig15PDNSGrowth reads the rpDNS bootstrap's growth, then trains and
// runs the miner on its final day to drive the wildcard collapse with
// mined (not ground-truth) zones.
func (r *Run) Fig15PDNSGrowth() (*Fig15Result, error) {
	b, err := r.bootstrap()
	if err != nil {
		return nil, err
	}
	finalFindings, err := trainAndMine(b.env, b.last.ByName())
	if err != nil {
		return nil, err
	}
	store := b.store
	res := &Fig15Result{
		Days:          store.Days(),
		TotalRRs:      store.Len(),
		DisposableRRs: store.DisposableCount(),
		StorageBytes:  store.StorageBytes(),
	}
	if res.TotalRRs > 0 {
		res.DisposableFrac = float64(res.DisposableRRs) / float64(res.TotalRRs)
	}
	if len(res.Days) > 0 {
		first, last := res.Days[0], res.Days[len(res.Days)-1]
		res.FirstDayNewShare = frac(first.Disposable, first.New)
		res.LastDayNewShare = frac(last.Disposable, last.New)
	}
	matcher := core.NewMatcher(finalFindings)
	res.Collapse = store.CollapseWildcards(matcher.Match)
	return res, nil
}

// Render prints the growth table and mitigation headline.
func (r *Fig15Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 15 / Section VI-C — pDNS growth over %d days\n", len(r.Days))
	header := []string{"day", "new RRs", "disposable", "share"}
	var rows [][]string
	for _, d := range r.Days {
		rows = append(rows, []string{
			d.Date.Format("01-02"), fmt.Sprintf("%d", d.New),
			fmt.Sprintf("%d", d.Disposable), pct(frac(d.Disposable, d.New)),
		})
	}
	sb.WriteString(renderTable(header, rows))
	fmt.Fprintf(&sb, "store: %d RRs, %s disposable (paper: 88%%), %.1f MB\n",
		r.TotalRRs, pct(r.DisposableFrac), float64(r.StorageBytes)/1e6)
	fmt.Fprintf(&sb, "daily new-RR disposable share: %s -> %s (paper: 68%% -> 94%%)\n",
		pct(r.FirstDayNewShare), pct(r.LastDayNewShare))
	fmt.Fprintf(&sb, "wildcard collapse: %d -> %d records; %d disposable RRs fold into %d wildcards (%.2f%%, paper: 0.7%%)\n",
		r.Collapse.Before, r.Collapse.After, r.Collapse.Collapsed,
		r.Collapse.Wildcards, r.Collapse.DisposableRatio()*100)
	return sb.String()
}

// --- Section VI-A: cache pressure from disposable domains -----------------

// CachePoint is one operating point of the cache-pressure sweep.
type CachePoint struct {
	DisposableFrac     float64
	HitRate            float64
	PrematureEvictions uint64 // live non-disposable victims of disposable inserts
	AboveQueries       uint64
	// NonDispMissRate is the cache-miss rate of NON-disposable queries:
	// the paper's degradation metric, isolated from volume shifts.
	NonDispMissRate float64
}

// CachePressureResult is the Section VI-A sweep.
type CachePressureResult struct {
	CacheSize int
	Points    []CachePoint
}

// CachePressure sweeps the disposable share of query volume with a
// deliberately small cache and measures premature evictions of useful
// entries and the resulting above-traffic inflation for non-disposable
// names — the paper's "DNS service degradation" mechanism.
func (r *Run) CachePressure(fracs []float64) (*CachePressureResult, error) {
	if len(fracs) == 0 {
		fracs = []float64{0, 0.05, 0.1, 0.2, 0.3, 0.4}
	}
	// The timer wheel reclaims dead entries proactively, so capacity binds
	// on the LIVE working set — a much smaller cache than under lazy
	// expiry is needed before disposable inserts displace useful entries.
	s := r.scale
	s.CacheSize = max(s.CacheSize/64, 128)
	res := &CachePressureResult{CacheSize: s.CacheSize}
	for _, f := range fracs {
		c, err := r.counters(world{scale: s, share: f})
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, CachePoint{
			DisposableFrac:     f,
			HitRate:            hitRate(c.stats),
			PrematureEvictions: c.premature(cache.CategoryOther, cache.CategoryDisposable),
			AboveQueries:       c.stats.UpstreamRTs,
			NonDispMissRate:    nonDispMissRate(c.stats),
		})
	}
	return res, nil
}

func frac64(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func hitRate(st resolver.Stats) float64 { return frac64(st.CacheHits, st.Queries) }

// nonDispMissRate is the cache-miss rate of non-disposable queries.
func nonDispMissRate(st resolver.Stats) float64 {
	return frac64(st.MissesByCategory[cache.CategoryOther], st.QueriesByCategory[cache.CategoryOther])
}

// CachePolicyPoint is one (policy, capacity) cell of the eviction-policy
// sweep: the paper's disposable-vs-cache-size impact analysis re-run under
// LRU and SIEVE.
type CachePolicyPoint struct {
	Policy             string
	CacheSize          int
	HitRate            float64
	PrematureEvictions uint64  // live non-disposable victims of disposable inserts
	DisposableShare    float64 // disposable share of all premature-eviction victims
	WheelReclaims      uint64  // dead entries reclaimed by the timer wheel
	NonDispMissRate    float64
}

// CachePolicySweepResult is the policy × capacity matrix.
type CachePolicySweepResult struct {
	DisposableFrac float64
	Points         []CachePolicyPoint
}

// CachePolicySweep replays the same heavy disposable day under every
// eviction policy at several cache capacities. Each cell is an independent
// deterministic run over an identical workload (same seeds, same namespace),
// so differences are attributable to the policy alone — the head-to-head
// comparison behind the "when does SIEVE beat LRU" question at capacity
// scale (EXPERIMENTS.md has the ten-seed answer).
func (r *Run) CachePolicySweep() (*CachePolicySweepResult, error) {
	const disposableFrac = 0.3
	const other, disp = cache.CategoryOther, cache.CategoryDisposable
	res := &CachePolicySweepResult{DisposableFrac: disposableFrac}
	for _, div := range []int{256, 64, 16} {
		for _, kind := range cache.Policies() {
			s := r.scale
			s.CacheSize = max(r.scale.CacheSize/div, 128)
			s.CachePolicy = kind
			c, err := r.counters(world{scale: s, share: disposableFrac})
			if err != nil {
				return nil, err
			}
			premDisp := c.premature(disp, other) + c.premature(disp, disp)
			premAll := premDisp + c.premature(other, other) + c.premature(other, disp)
			var reclaims uint64
			for _, cs := range c.caches {
				reclaims += cs.Reclaims
			}
			res.Points = append(res.Points, CachePolicyPoint{
				Policy:             kind.String(),
				CacheSize:          s.CacheSize,
				HitRate:            hitRate(c.stats),
				PrematureEvictions: c.premature(other, disp),
				DisposableShare:    frac64(premDisp, premAll),
				WheelReclaims:      reclaims,
				NonDispMissRate:    nonDispMissRate(c.stats),
			})
		}
	}
	return res, nil
}

// Render prints the policy × capacity matrix.
func (r *CachePolicySweepResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Eviction-policy sweep — Section VI-A impact analysis under LRU and SIEVE (disposable share %s)\n",
		pct(r.DisposableFrac))
	header := []string{"cache", "policy", "hit rate", "premature[other<-disp]", "disp victim share", "wheel reclaims", "non-disp miss rate"}
	var rows [][]string
	for _, pt := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", pt.CacheSize), pt.Policy, pct(pt.HitRate),
			fmt.Sprintf("%d", pt.PrematureEvictions),
			pct(pt.DisposableShare),
			fmt.Sprintf("%d", pt.WheelReclaims),
			pct(pt.NonDispMissRate),
		})
	}
	sb.WriteString(renderTable(header, rows))
	sb.WriteString("expected shape: one-shot disposable entries are never re-referenced, so SIEVE, which\n")
	sb.WriteString("spends no recency effort on them (a visited bit, no promotion), retains useful entries\n")
	sb.WriteString("at least as well as LRU while the cache is under live pressure\n")
	return sb.String()
}

// Render prints the sweep table.
func (r *CachePressureResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Section VI-A — cache pressure sweep (per-server cache: %d entries)\n", r.CacheSize)
	header := []string{"disposable%", "hit rate", "premature evictions", "above RTs", "non-disp miss rate"}
	var rows [][]string
	for _, pt := range r.Points {
		rows = append(rows, []string{
			pct(pt.DisposableFrac), pct(pt.HitRate),
			fmt.Sprintf("%d", pt.PrematureEvictions),
			fmt.Sprintf("%d", pt.AboveQueries),
			pct(pt.NonDispMissRate),
		})
	}
	sb.WriteString(renderTable(header, rows))
	sb.WriteString("expected shape: premature evictions and the non-disposable miss rate grow with the disposable share\n")
	return sb.String()
}

// --- Section VI-B: DNSSEC validation load ---------------------------------

// DNSSECResult quantifies validation work caused by disposable traffic.
type DNSSECResult struct {
	Validations        uint64
	ValidationErrs     uint64
	DisposableQueries  uint64
	DisposableMisses   uint64
	ValidationsPerDisp float64 // paper's point: ~1 never-reused validation per disposable query
	SignaturesSigned   uint64  // authoritative-side signing operations
}

// DNSSECLoad signs every disposable zone, enables the validating resolver,
// and measures signature validations attributable to disposable queries.
func (r *Run) DNSSECLoad() (*DNSSECResult, error) {
	c, err := r.counters(world{scale: r.scale, share: -1, signed: true})
	if err != nil {
		return nil, err
	}
	st := c.stats
	res := &DNSSECResult{
		Validations:       st.Validations,
		ValidationErrs:    st.ValidationErrs,
		DisposableQueries: st.QueriesByCategory[cache.CategoryDisposable],
		DisposableMisses:  st.MissesByCategory[cache.CategoryDisposable],
		SignaturesSigned:  c.signatures,
	}
	if res.DisposableMisses > 0 {
		res.ValidationsPerDisp = float64(st.Validations) / float64(res.DisposableMisses)
	}
	return res, nil
}

// Render prints the validation load.
func (r *DNSSECResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Section VI-B — DNSSEC validation load with signed disposable zones\n")
	fmt.Fprintf(&sb, "  validations: %d (errors: %d), authoritative signings: %d\n",
		r.Validations, r.ValidationErrs, r.SignaturesSigned)
	fmt.Fprintf(&sb, "  disposable queries: %d, disposable cache misses: %d\n", r.DisposableQueries, r.DisposableMisses)
	fmt.Fprintf(&sb, "  validations per disposable miss: %.2f (paper: ~1 never-reused validation per disposable query)\n",
		r.ValidationsPerDisp)
	return sb.String()
}

// --- Ablations -------------------------------------------------------------

// AblationResult compares classifier quality across design choices.
type AblationResult struct {
	Rows []AblationRow
}

// AblationRow is one ablation variant's cross-validated quality.
type AblationRow struct {
	Name string
	AUC  float64
	TPR  float64
	FPR  float64
}

// FeatureAblation cross-validates the classifier on the reference day with
// the full feature vector, tree-structure features only, and CHR features
// only — the design question of Section V-A2.
func (r *Run) FeatureAblation() (*AblationResult, error) {
	d, err := r.refDay()
	if err != nil {
		return nil, err
	}
	byName := d.byName
	tree := core.BuildTree(byName, d.env.Suffixes)
	labels := d.env.TrainingLabels()

	variants := []struct {
		name string
		mask []int
	}{
		{name: "all-features", mask: nil},
		{name: "tree-structure-only", mask: features.TreeStructureIdx},
		{name: "cache-hit-rate-only", mask: features.CacheHitRateIdx},
	}
	res := &AblationResult{}
	for i, v := range variants {
		cfg := core.TrainingConfig{FeatureMask: v.mask}
		examples := core.BuildTrainingSet(tree, byName, labels, cfg)
		cv, err := core.EvaluateClassifier(examples, 10, cfg, rand.New(rand.NewSource(r.scale.Seed+300+int64(i))))
		if err != nil {
			return nil, fmt.Errorf("variant %s: %w", v.name, err)
		}
		c := cv.ConfusionAt(0.5)
		res.Rows = append(res.Rows, AblationRow{Name: v.name, AUC: cv.AUC(), TPR: c.TPR(), FPR: c.FPR()})
	}
	return res, nil
}

// Render prints the ablation table.
func (r *AblationResult) Render() string {
	header := []string{"variant", "AUC", "TPR@0.5", "FPR@0.5"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Name, fmt.Sprintf("%.4f", row.AUC), pct(row.TPR), pct(row.FPR)})
	}
	return renderTable(header, rows)
}

// SharedCacheResult is the shared-cache ablation: the cluster hit rate of
// the paper's per-server independent caches and of one shared cache of equal
// total capacity.
type SharedCacheResult struct {
	Independent, Shared float64
}

// SharedCacheAblation compares the paper's per-server independent caches,
// the reference day's, against one shared cache of equal total capacity.
func (r *Run) SharedCacheAblation() (*SharedCacheResult, error) {
	d, err := r.refDay()
	if err != nil {
		return nil, err
	}
	s := r.scale
	s.Servers, s.CacheSize = 1, r.scale.CacheSize*r.scale.Servers
	shared, err := r.counters(world{scale: s, share: -1})
	if err != nil {
		return nil, err
	}
	return &SharedCacheResult{Independent: hitRate(d.stats), Shared: hitRate(shared.stats)}, nil
}

// Render prints the shared-cache ablation.
func (r *SharedCacheResult) Render() string {
	return renderTable([]string{"variant", "cluster hit rate"}, [][]string{
		{"independent-caches", pct(r.Independent)},
		{"one-shared-cache", pct(r.Shared)},
	})
}
