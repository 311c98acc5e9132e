package workload

import (
	"runtime"
	"testing"
	"time"
)

// burnDays returns n consecutive profiles of each calibration a replay
// burns: December with the bootstrap's MeasurementBoost ramp, and February.
func burnDays(n int) map[string][]Profile {
	dec := time.Date(2011, 11, 28, 0, 0, 0, 0, time.UTC)
	feb := time.Date(2011, 2, 1, 0, 0, 0, 0, time.UTC)
	days := map[string][]Profile{}
	for d := 0; d < n; d++ {
		p := DecemberProfile(dec.AddDate(0, 0, d))
		p.MeasurementBoost *= 1 + 0.35*float64(d)/float64(n-1)
		days["december-ramp"] = append(days["december-ramp"], p)
		days["february"] = append(days["february"], FebruaryProfile(feb.AddDate(0, 0, d)))
	}
	return days
}

// TestBurnDayMatchesStartDay: a generator that burns each day leaves
// everything later draws read as a twin that generates and drains the same
// days does — the rng, the zones' TTLs and weights, the repeat rings'
// lengths and positions, the NX pool's length.
func TestBurnDayMatchesStartDay(t *testing.T) {
	for name, days := range burnDays(6) {
		t.Run(name, func(t *testing.T) {
			cfg := GeneratorConfig{Seed: 12, Clients: 500, BaseEventsPerDay: 20_000}
			burnt, live := pinRegistry(), pinRegistry()
			burner, generator := NewGenerator(burnt, cfg), NewGenerator(live, cfg)
			zones := func(r *Registry) []*ZoneSpec {
				return append(append(append([]*ZoneSpec(nil), r.NonDisposable...), r.CDN...), r.Disposable...)
			}
			for d, p := range days {
				burner.BurnDay(p)
				s := generator.StartDay(p)
				for _, ok := s.Next(); ok; _, ok = s.Next() {
				}
				for i := 0; i < 64; i++ {
					if a, b := burner.rng.Int63(), generator.rng.Int63(); a != b {
						t.Fatalf("day %d: rng draw %d after the day: burnt %d, generated %d", d, i, a, b)
					}
				}
				for i, z := range burnt.Disposable {
					if lz := live.Disposable[i]; z.TTL != lz.TTL || z.Weight != lz.Weight {
						t.Errorf("day %d: %s: burnt TTL %d weight %v, generated TTL %d weight %v", d, z.Zone, z.TTL, z.Weight, lz.TTL, lz.Weight)
					}
				}
				liveZones := zones(live)
				for i, z := range zones(burnt) {
					if lz := liveZones[i]; len(z.recent) != len(lz.recent) || z.recentI != lz.recentI {
						t.Errorf("day %d: %s: burnt ring %d at %d, generated %d at %d", d, z.Zone, len(z.recent), z.recentI, len(lz.recent), lz.recentI)
					}
				}
				if len(burner.nxPool) != len(generator.nxPool) {
					t.Errorf("day %d: burnt NX pool holds %d names, generated %d", d, len(burner.nxPool), len(generator.nxPool))
				}
			}
		})
	}
}

// TestBurnDayAllocs: burning a day allocates what StartDay does for it (the
// day's offsets and zone pickers) and nothing per query. The twins are
// measured from the same state, on the replay benchmark's calibration
// (February, 30 % disposable), after days that filled every repeat ring
// and the NX pool, whose growth is the generator's and not the day's.
func TestBurnDayAllocs(t *testing.T) {
	days := burnDays(4)["february"]
	for i := range days {
		days[i].DisposableFrac = 0.30
	}
	cfg := GeneratorConfig{Seed: 12, Clients: 500, BaseEventsPerDay: 20_000}
	burner, starter := NewGenerator(pinRegistry(), cfg), NewGenerator(pinRegistry(), cfg)
	for _, p := range days[:len(days)-1] {
		burner.BurnDay(p)
		starter.BurnDay(p)
	}
	for _, z := range burner.registry.Disposable {
		if len(z.recent) < ringSize {
			t.Fatalf("%s: repeat ring still growing (%d of %d)", z.Zone, len(z.recent), ringSize)
		}
	}
	if len(burner.nxPool) < burner.nxPoolCap {
		t.Fatalf("NX pool still growing (%d of %d)", len(burner.nxPool), burner.nxPoolCap)
	}
	last := days[len(days)-1]
	mallocs := func(f func()) uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	burn := mallocs(func() { burner.BurnDay(last) })
	start := mallocs(func() { starter.StartDay(last) })
	events := burner.EventsFor(last)
	t.Logf("BurnDay: %d allocations for %d queries, StartDay alone %d", burn, events, start)
	if burn > start {
		t.Errorf("BurnDay allocated %d times beyond StartDay's %d over %d queries, want none", burn-start, start, events)
	}
}
