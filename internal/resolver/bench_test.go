package resolver

import (
	"fmt"
	"testing"
	"time"

	"dnsnoise/internal/authority"
	"dnsnoise/internal/dnsmsg"
)

func benchCluster(b *testing.B) *Cluster {
	b.Helper()
	up := authority.NewServer()
	z, err := authority.NewZone("bench.test", authority.WithSynth(
		func(_ []byte, qtype dnsmsg.Type, dst []dnsmsg.RR) ([]dnsmsg.RR, bool) {
			return append(dst, dnsmsg.RR{Type: qtype, Class: dnsmsg.ClassIN, TTL: 300, RData: dnsmsg.IPv4(198, 18, 0, 1)}), true
		}))
	if err != nil {
		b.Fatal(err)
	}
	if err := up.AddZone(z); err != nil {
		b.Fatal(err)
	}
	c, err := NewCluster(up, WithServers(2), WithCacheSize(1<<14))
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func BenchmarkResolveCacheHit(b *testing.B) {
	c := benchCluster(b)
	t0 := time.Date(2011, 12, 1, 0, 0, 0, 0, time.UTC)
	q := Query{Time: t0, ClientID: 1, Name: "hot.bench.test", Type: dnsmsg.TypeA}
	if _, err := c.Resolve(q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Resolve(q); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStreamQueries is the pre-generated workload shared by the
// sequential/parallel cluster benchmarks, so both paths resolve the same
// query mix (≈80% repeat names, 20% always-miss) and the comparison
// measures only the execution architecture.
var benchStreamQueries = mixedQueries(100_000)

// BenchmarkClusterSequential resolves the mixed stream on the caller
// goroutine, one query at a time — the pre-worker-pool architecture.
func BenchmarkClusterSequential(b *testing.B) {
	c, err := NewCluster(synthUpstream(b), WithServers(4), WithCacheSize(1<<14))
	if err != nil {
		b.Fatal(err)
	}
	qs := benchStreamQueries
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Resolve(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkClusterParallel resolves the same stream through the per-server
// worker goroutines via StartStream.
func BenchmarkClusterParallel(b *testing.B) {
	c, err := NewCluster(synthUpstream(b), WithServers(4), WithCacheSize(1<<14))
	if err != nil {
		b.Fatal(err)
	}
	qs := benchStreamQueries
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := len(qs)
		if rest := b.N - done; rest < n {
			n = rest
		}
		st := c.StartStream()
		for _, q := range qs[:n] {
			st.Submit(q)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		done += n
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

func BenchmarkResolveCacheMiss(b *testing.B) {
	c := benchCluster(b)
	t0 := time.Date(2011, 12, 1, 0, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := Query{Time: t0, ClientID: 1, Name: fmt.Sprintf("tok%d.bench.test", i), Type: dnsmsg.TypeA}
		if _, err := c.Resolve(q); err != nil {
			b.Fatal(err)
		}
	}
}
