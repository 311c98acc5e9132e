package resolver

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/telemetry"
)

// TestStatsSnapshotDuringStream polls every stats surface — Stats,
// PerServerStats, CacheStats, and a telemetry scrape — from a separate
// goroutine while a streaming run is in flight. Run under -race this proves
// the snapshot path never races the per-server workers; the invariant
// checks prove the derived counters (CacheHits in particular) stay sane on
// torn-in-time reads.
func TestStatsSnapshotDuringStream(t *testing.T) {
	reg := telemetry.NewRegistry()
	c, err := NewCluster(synthUpstream(t), WithServers(3), WithCacheSize(1<<10),
		WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	c.SetTaps(TapFunc(func(Observation) {}), TapFunc(func(Observation) {}))

	stop := make(chan struct{})
	done := make(chan struct{})
	var polls atomic.Uint64
	pollErr := make(chan string, 1)
	go func() {
		defer close(done)
		var lastQueries uint64
		fail := func(msg string) {
			select {
			case pollErr <- msg:
			default:
			}
		}
		for {
			st := c.Stats()
			if st.Queries != st.CacheHits+st.CacheMisses {
				fail("stats identity broken mid-run")
			}
			if st.Queries < lastQueries {
				fail("query count went backwards")
			}
			lastQueries = st.Queries
			for _, ps := range c.PerServerStats() {
				if ps.CacheHits > ps.Queries {
					fail("per-server hits exceed queries (underflow)")
				}
			}
			for _, cs := range c.CacheStats() {
				if cs.Evictions > cs.Insertions {
					fail("cache evictions exceed insertions")
				}
			}
			var sb strings.Builder
			if err := reg.WritePrometheus(&sb); err != nil {
				fail("scrape failed: " + err.Error())
			}
			if polls.Add(1)%64 == 0 {
				time.Sleep(50 * time.Microsecond)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	st := c.StartStream()
	for i := 0; i < 6000; i++ {
		name := "h.synth.test"
		if i%4 == 0 {
			name = "cold.synth.test"
		}
		st.Submit(Query{
			Time:     t0.Add(time.Duration(i) * time.Second),
			ClientID: uint32(i % 97),
			Name:     name,
			Type:     dnsmsg.TypeA,
		})
		if i%1500 == 1499 {
			if err := st.Barrier(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-done

	select {
	case msg := <-pollErr:
		t.Fatal(msg)
	default:
	}
	if polls.Load() == 0 {
		t.Fatal("poller never ran")
	}
	final := c.Stats()
	if final.Queries != 6000 {
		t.Fatalf("final queries = %d, want 6000", final.Queries)
	}
	if final.Queries != final.CacheHits+final.CacheMisses {
		t.Fatalf("final stats identity broken: %+v", final)
	}
	// The telemetry scrape must agree with the merged stats once quiesced.
	snap := reg.Snapshot()
	var scraped uint64
	for i := 0; i < c.NumServers(); i++ {
		scraped += snap.Counter(`resolver_queries_total{server="` + string(rune('0'+i)) + `"}`)
	}
	if scraped != final.Queries {
		t.Fatalf("scraped queries = %d, want %d", scraped, final.Queries)
	}
	if lat := snap.Histograms["resolver_latency_ns"]; lat.Count == 0 {
		t.Fatal("latency histogram collected no samples with telemetry enabled")
	}
}
