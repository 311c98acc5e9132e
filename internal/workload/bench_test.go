package workload

import (
	"testing"
	"time"

	"dnsnoise/internal/resolver"
)

func BenchmarkGenerateDay(b *testing.B) {
	reg := NewRegistry(RegistryConfig{Seed: 9, NonDisposableZones: 150, DisposableZones: 50, HostsPerZoneMax: 32})
	gen := NewGenerator(reg, GeneratorConfig{Seed: 10, Clients: 300, BaseEventsPerDay: 20000})
	p := DecemberProfile(time.Date(2011, 12, 1, 0, 0, 0, 0, time.UTC))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		gen.GenerateDay(p, func(resolver.Query) bool { n++; return true })
		if n == 0 {
			b.Fatal("no events")
		}
	}
}

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
