package workload

import (
	"runtime"
	"testing"
	"time"
)

func BenchmarkBuildAuthority(b *testing.B) {
	reg := NewRegistry(RegistryConfig{Seed: 9, NonDisposableZones: 150, DisposableZones: 50, HostsPerZoneMax: 32})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.BuildAuthority(nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDayStream draws the replay workload's day (February with 30 %
// disposable traffic) one query at a time, as ingest.GeneratorSource and the
// ReplayProfiles re-walk do; allocs/op is per query.
func BenchmarkDayStream(b *testing.B) {
	reg := NewRegistry(RegistryConfig{Seed: 9, NonDisposableZones: 150, DisposableZones: 50, HostsPerZoneMax: 32})
	gen := NewGenerator(reg, GeneratorConfig{Seed: 10, Clients: 300, BaseEventsPerDay: 20000})
	p := FebruaryProfile(time.Date(2011, 2, 1, 0, 0, 0, 0, time.UTC))
	p.DisposableFrac = 0.30
	b.ReportAllocs()
	b.ResetTimer()
	var day *DayStream
	for i := 0; i < b.N; i++ {
		if day == nil || day.Remaining() == 0 {
			b.StopTimer()
			day = gen.StartDay(p)
			b.StartTimer()
		}
		if _, ok := day.Next(); !ok {
			b.Fatal("day ended early")
		}
	}
}

// TestDayStreamAllocs: StartDay holds the day's clock as one 8-byte offset
// an event, not a 24-byte time.Time, and allocates nothing else that grows
// with the day: the bytes it allocates for two days of different volumes
// differ by at most 8 an event. What does not grow, the zone pickers of the
// pin registry, stays under 16 KiB.
func TestDayStreamAllocs(t *testing.T) {
	p := FebruaryProfile(time.Date(2011, 2, 1, 0, 0, 0, 0, time.UTC))
	p.DisposableFrac = 0.30
	startDay := func(base int) (bytes, events float64) {
		gen := NewGenerator(pinRegistry(), GeneratorConfig{Seed: 12, Clients: 500, BaseEventsPerDay: base})
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		day := gen.StartDay(p)
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc), float64(day.Remaining())
	}
	b1, n1 := startDay(20_000)
	b2, n2 := startDay(60_000)
	perEvent := (b2 - b1) / (n2 - n1)
	constant := b1 - perEvent*n1
	t.Logf("StartDay: %.2f bytes per event plus %.0f", perEvent, constant)
	if perEvent > 8.5 {
		t.Errorf("StartDay allocates %.2f bytes per event, budget 8 (an offset) and the large allocation's page rounding", perEvent)
	}
	if constant > 16<<10 {
		t.Errorf("StartDay allocates %.0f bytes beside its offsets, budget 16 KiB", constant)
	}
}
