package experiments

import (
	"fmt"
	"strings"

	"dnsnoise/internal/cache"
	"dnsnoise/internal/core"
	"dnsnoise/internal/resolver"
	"dnsnoise/internal/sim"
	"dnsnoise/internal/workload"
)

// --- Section VI-A mitigation: low-priority caching of mined zones ---------

// MitigationResult compares an unprotected cache against the paper's
// suggested mitigation ("disposable domains could be treated with low
// priority") driven by the miner's own output.
type MitigationResult struct {
	DisposableFrac float64
	CacheSize      int
	// Baseline: plain LRU.
	BaseHitRate         float64
	BaseNonDispMissRate float64
	BasePremature       uint64
	// Mitigated: mined names inserted at the cold end of the LRU.
	MitigatedHitRate         float64
	MitigatedNonDispMissRate float64
	MitigatedPremature       uint64
	// MinedZones drove the deprioritizer.
	MinedZones int
}

// CacheMitigation takes the disposable zones mined from the reference day,
// then replays a heavy-disposable day twice with a small cache: once
// plain, once with mined names deprioritized. The mitigation must restore
// most of the non-disposable hit rate (Section VI-A's "caching policies
// may require adjustments").
func (r *Run) CacheMitigation(disposableFrac float64) (*MitigationResult, error) {
	if disposableFrac <= 0 {
		disposableFrac = 0.3
	}
	// Capacity must bind on the hot working set for a priority policy to
	// matter; production caches under "periods of heavy load" (Section
	// VI-A) are in exactly that regime. With timer-wheel expiry the cache
	// holds only live entries, so the binding point sits far below the
	// lazy-expiry sizing.
	heavy := world{scale: r.scale, day: 1, share: disposableFrac}
	heavy.scale.CacheSize = max(r.scale.CacheSize/256, 128)

	// Phase 1: learn the disposable zones from a normal day.
	d, err := r.refDay()
	if err != nil {
		return nil, err
	}
	findings, err := d.findings()
	if err != nil {
		return nil, err
	}
	matcher := core.NewMatcher(findings)

	// Phase 2: replay the heavy day with and without the mitigation. The
	// mitigated run is the run's alone: its deprioritizer is no map key.
	base, err := r.counters(heavy)
	if err != nil {
		return nil, err
	}
	mitigated, err := heavy.simulate(resolver.WithDeprioritizer(func(name string) bool {
		_, ok := matcher.Match(name)
		return ok
	}))
	if err != nil {
		return nil, err
	}
	const other, disp = cache.CategoryOther, cache.CategoryDisposable
	return &MitigationResult{
		DisposableFrac:           disposableFrac,
		CacheSize:                heavy.scale.CacheSize,
		BaseHitRate:              hitRate(base.stats),
		BaseNonDispMissRate:      nonDispMissRate(base.stats),
		BasePremature:            base.premature(other, disp),
		MitigatedHitRate:         hitRate(mitigated.stats),
		MitigatedNonDispMissRate: nonDispMissRate(mitigated.stats),
		MitigatedPremature:       mitigated.premature(other, disp),
		MinedZones:               len(matcher.Zones()),
	}, nil
}

// Render prints the before/after comparison.
func (r *MitigationResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Section VI-A mitigation — low-priority caching of mined zones (%d zones, cache %d, disposable share %s)\n",
		r.MinedZones, r.CacheSize, pct(r.DisposableFrac))
	header := []string{"variant", "hit rate", "non-disp miss rate", "premature evictions"}
	rows := [][]string{
		{"plain LRU", pct(r.BaseHitRate), pct(r.BaseNonDispMissRate), fmt.Sprintf("%d", r.BasePremature)},
		{"mined-zone low priority", pct(r.MitigatedHitRate), pct(r.MitigatedNonDispMissRate), fmt.Sprintf("%d", r.MitigatedPremature)},
	}
	sb.WriteString(renderTable(header, rows))
	sb.WriteString("deprioritizing mined names reclaims the capacity one-time entries were wasting,\n")
	sb.WriteString("roughly matching a plain cache of twice the size\n")
	return sb.String()
}

// --- Cross-network agreement: globally disposable zones -------------------

// CrossNetworkResult measures how well independently mined zone sets from
// two vantage points agree — Section IV's observation that "comparing
// disposable zones among different networks can help discover globally
// disposable zones".
type CrossNetworkResult struct {
	ZonesA, ZonesB int
	Shared         int
	Jaccard        float64
	// SharedTruePositiveRate: of the shared zones with ground truth, the
	// fraction actually disposable — agreement should purify the set.
	SharedPrecision float64
	// SoloPrecision: precision of zones found by only one network.
	SoloPrecision float64
}

// CrossNetwork simulates two ISPs sharing the global namespace but serving
// different client populations (different traffic seeds and mixes), mines
// each independently with its own locally trained classifier, and
// intersects the zone sets.
func CrossNetwork(scale sim.Scale) (*CrossNetworkResult, error) {
	mine := func(trafficSeed int64, frac float64) (map[string]bool, map[string]bool, error) {
		env, err := sim.NewEnv(scale)
		if err != nil {
			return nil, nil, err
		}
		// Different client population: re-seed the generator.
		env.Generator = workload.NewGenerator(env.Registry, workload.GeneratorConfig{
			Seed:             trafficSeed,
			Clients:          scale.Clients,
			BaseEventsPerDay: scale.BaseEventsPerDay,
		})
		p := workload.DecemberProfile(dateAt(0))
		p.DisposableFrac = frac
		collector, err := env.RunDay(p)
		if err != nil {
			return nil, nil, err
		}
		findings, err := trainAndMine(env, collector.ByName())
		if err != nil {
			return nil, nil, err
		}
		zones := make(map[string]bool)
		for _, z := range core.NewMatcher(findings).Zones() {
			zones[z] = true
		}
		return zones, env.Registry.GroundTruth(), nil
	}

	zonesA, truth, err := mine(scale.Seed+1000, 0.022)
	if err != nil {
		return nil, err
	}
	zonesB, _, err := mine(scale.Seed+2000, 0.028)
	if err != nil {
		return nil, err
	}

	res := &CrossNetworkResult{ZonesA: len(zonesA), ZonesB: len(zonesB)}
	var sharedTP, sharedKnown, soloTP, soloKnown int
	union := make(map[string]bool)
	for z := range zonesA {
		union[z] = true
	}
	for z := range zonesB {
		union[z] = true
	}
	// disposableUnder reports ground truth by walking parent zones: mined
	// zones may sit above or below the labeled origin.
	disposableUnder := func(zone string) (bool, bool) {
		if d, ok := truth[zone]; ok {
			return d, true
		}
		// A mined parent of a labeled disposable origin counts as true.
		for origin, d := range truth {
			if d && strings.HasSuffix(origin, "."+zone) {
				return true, true
			}
		}
		return false, false
	}
	for z := range union {
		shared := zonesA[z] && zonesB[z]
		if shared {
			res.Shared++
		}
		if d, known := disposableUnder(z); known {
			if shared {
				sharedKnown++
				if d {
					sharedTP++
				}
			} else {
				soloKnown++
				if d {
					soloTP++
				}
			}
		}
	}
	if len(union) > 0 {
		res.Jaccard = float64(res.Shared) / float64(len(union))
	}
	res.SharedPrecision = frac(sharedTP, sharedKnown)
	res.SoloPrecision = frac(soloTP, soloKnown)
	return res, nil
}

// Render prints the agreement summary.
func (r *CrossNetworkResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Cross-network agreement — globally disposable zones (Section IV)\n")
	fmt.Fprintf(&sb, "  network A mined %d zones, network B mined %d; %d shared (Jaccard %.2f)\n",
		r.ZonesA, r.ZonesB, r.Shared, r.Jaccard)
	fmt.Fprintf(&sb, "  precision among labeled zones: shared %s vs single-network %s\n",
		pct(r.SharedPrecision), pct(r.SoloPrecision))
	sb.WriteString("  note: zones that merely LOOK disposable look that way from every vantage\n")
	sb.WriteString("  point, so agreement widens coverage more than it purifies precision\n")
	return sb.String()
}
