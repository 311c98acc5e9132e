package resolver

import (
	"testing"

	"dnsnoise/internal/cache"
)

// TestPolicyDeterminismSeqVsParallel pins the determinism contract for the
// non-default eviction policy: with SIEVE selected (and a cache
// small enough to force evictions and wheel reclaims), per-server stats and
// the full cache counters — hits, misses, evictions, premature splits,
// wheel reclaims — must be identical whether the stream is resolved
// sequentially or through the per-server workers. LRU is included so the
// pin covers the default too.
func TestPolicyDeterminismSeqVsParallel(t *testing.T) {
	qs := mixedQueries(20_000)
	for _, kind := range cache.Policies() {
		t.Run(kind.String(), func(t *testing.T) {
			opts := []Option{WithServers(4), WithCacheSize(64), WithCachePolicy(kind)}
			seq, err := NewCluster(synthUpstream(t), opts...)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range qs {
				if _, err := seq.Resolve(q); err != nil {
					t.Fatal(err)
				}
			}
			par, err := NewCluster(synthUpstream(t), opts...)
			if err != nil {
				t.Fatal(err)
			}
			st := par.StartStream()
			for _, q := range qs {
				st.Submit(q)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			seqStats, parStats := seq.PerServerStats(), par.PerServerStats()
			for i := range seqStats {
				if seqStats[i] != parStats[i] {
					t.Errorf("server %d stats differ:\nseq: %+v\npar: %+v", i, seqStats[i], parStats[i])
				}
			}
			seqCache, parCache := seq.CacheStats(), par.CacheStats()
			for i := range seqCache {
				if seqCache[i] != parCache[i] {
					t.Errorf("server %d cache stats differ:\nseq: %+v\npar: %+v", i, seqCache[i], parCache[i])
				}
			}
			// The tiny cache must actually have exercised the machinery
			// the pin is about.
			var ev, rec uint64
			for _, cs := range seqCache {
				ev += cs.Evictions
				rec += cs.Reclaims
			}
			if ev == 0 {
				t.Error("no evictions recorded — cache not under pressure, pin is vacuous")
			}
			if rec == 0 {
				t.Error("no wheel reclaims recorded — TTLs never elapsed, pin is vacuous")
			}
		})
	}
}
