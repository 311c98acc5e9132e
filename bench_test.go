package dnsnoise

// One benchmark per table and figure of the paper's evaluation, each
// regenerating its result from the simulation at a reduced scale (run
// cmd/dnsnoise-exp for full-scale reproductions). The bench names follow
// the experiment index in DESIGN.md.

import (
	"testing"

	"dnsnoise/internal/experiments"
	"dnsnoise/internal/sim"
)

// benchScale keeps each regeneration under ~1s so `go test -bench=.`
// completes in minutes.
func benchScale() sim.Scale {
	return sim.Scale{
		Seed:               11,
		NonDisposableZones: 150,
		DisposableZones:    50,
		HostsPerZoneMax:    32,
		Clients:            300,
		BaseEventsPerDay:   20_000,
		Servers:            2,
		CacheSize:          1 << 14,
	}
}

func BenchmarkFig2TrafficProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2TrafficProfile(benchScale(), 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3LongTail(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewRun(benchScale(), 0).Fig3LongTail(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4CHR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4CHR(benchScale(), 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5NewRRs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewRun(benchScale(), 4).Fig5NewRRs(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7LabeledCHR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewRun(benchScale(), 0).Fig7LabeledCHR(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12ROC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewRun(benchScale(), 0).Fig12ROC(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGrowthStudy measures the one study behind Figures 11, 13 and 14
// and Tables I and II, with all four renderings.
func BenchmarkGrowthStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.NewRun(benchScale(), 0).GrowthStudy()
		if err != nil {
			b.Fatal(err)
		}
		for _, out := range []string{r.RenderFig11(), r.RenderFig13(), r.RenderFig14(), r.RenderTables()} {
			if out == "" {
				b.Fatal("empty render")
			}
		}
	}
}

func BenchmarkFig15PDNSGrowth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewRun(benchScale(), 4).Fig15PDNSGrowth(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCachePressure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewRun(benchScale(), 0).CachePressure([]float64{0, 0.2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDNSSECLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewRun(benchScale(), 0).DNSSECLoad(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFeatureFamilies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewRun(benchScale(), 0).FeatureAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSharedCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewRun(benchScale(), 0).SharedCacheAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublicAPIMine measures the public train-and-mine path on a
// synthetic window (the library's hot path for downstream users).
func BenchmarkPublicAPIMine(b *testing.B) {
	ds := NewDataset()
	var labeled []LabeledZone
	mkRec := func(name string, ttl uint32, rdata string) Record {
		return Record{QName: name, Name: name, Type: "A", TTL: ttl, RData: rdata}
	}
	for z := 0; z < 20; z++ {
		zone := string(rune('a'+z%26)) + "sig.vendor.com"
		labeled = append(labeled, LabeledZone{Zone: zone, Disposable: z%2 == 0})
		for i := 0; i < 12; i++ {
			var rec Record
			if z%2 == 0 {
				rec = mkRec(randomToken(z*100+i)+"."+zone, 60, "127.0.0.1")
				_ = ds.AddBelow(rec)
				_ = ds.AddAbove(rec)
			} else {
				rec = mkRec(hostLabel(i)+"."+zone, 3600, "198.18.0.1")
				for q := 0; q < 20; q++ {
					_ = ds.AddBelow(rec)
				}
				_ = ds.AddAbove(rec)
			}
		}
	}
	clf, err := Train(ds, labeled, TrainOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := clf.Mine(ds, MineOptions{Theta: 0.9}); err != nil {
			b.Fatal(err)
		}
	}
}

func randomToken(seed int) string {
	const alphabet = "0123456789abcdefghijklmnopqrstuvwxyz"
	b := make([]byte, 20)
	state := uint64(seed)*2654435761 + 12345
	for i := range b {
		state = state*6364136223846793005 + 1442695040888963407
		b[i] = alphabet[state>>33%uint64(len(alphabet))]
	}
	return string(b)
}

func hostLabel(i int) string {
	hosts := []string{"www", "mail", "api", "cdn", "shop", "img", "news", "blog", "m", "login", "search", "video"}
	return hosts[i%len(hosts)]
}

func BenchmarkRenewalModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewRun(benchScale(), 0).RenewalModel(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTaxonomy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewRun(benchScale(), 0).Taxonomy(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselineComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewRun(benchScale(), 0).Baseline(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCacheMitigation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewRun(benchScale(), 0).CacheMitigation(0.3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCrossNetwork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CrossNetwork(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}
