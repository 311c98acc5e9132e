package resolver

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dnsnoise/internal/authority"
	"dnsnoise/internal/dnsmsg"
)

// synthUpstream answers every A query under synth.test with a per-name
// address, so parallel tests can generate unbounded distinct names.
func synthUpstream(t testing.TB) *authority.Server {
	t.Helper()
	up := authority.NewServer()
	z, err := authority.NewZone("synth.test", authority.WithSynth(
		func(_ []byte, qtype dnsmsg.Type, dst []dnsmsg.RR) ([]dnsmsg.RR, bool) {
			return append(dst, dnsmsg.RR{Type: qtype, Class: dnsmsg.ClassIN, TTL: 300, RData: dnsmsg.IPv4(198, 18, 0, 1)}), true
		}))
	if err != nil {
		t.Fatal(err)
	}
	if err := up.AddZone(z); err != nil {
		t.Fatal(err)
	}
	return up
}

// mixedQueries builds a stream with repeats (cache hits) and fresh names
// (misses) across many clients.
func mixedQueries(n int) []Query {
	qs := make([]Query, 0, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("host%d.synth.test", i%97) // hot set
		if i%5 == 0 {
			name = fmt.Sprintf("cold%d.synth.test", i) // always a miss
		}
		qs = append(qs, Query{
			Time:     t0.Add(time.Duration(i) * time.Second),
			ClientID: uint32(i % 512),
			Name:     name,
			Type:     dnsmsg.TypeA,
		})
	}
	return qs
}

// TestResolveBatchMatchesSequential pins the core parallel guarantee at the
// resolver level: per-server stats shards and cache stats are identical
// whether the same stream is resolved sequentially or through the
// per-server workers.
func TestResolveBatchMatchesSequential(t *testing.T) {
	qs := mixedQueries(20_000)

	seq, err := NewCluster(synthUpstream(t), WithServers(4), WithCacheSize(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if _, err := seq.Resolve(q); err != nil {
			t.Fatal(err)
		}
	}

	par, err := NewCluster(synthUpstream(t), WithServers(4), WithCacheSize(1<<10))
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
		if seqCache[i].Hits != parCache[i].Hits || seqCache[i].Misses != parCache[i].Misses {
			t.Errorf("server %d cache stats differ:\nseq: %+v\npar: %+v", i, seqCache[i], parCache[i])
		}
	}
	if seq.Stats() != par.Stats() {
		t.Errorf("merged stats differ:\nseq: %+v\npar: %+v", seq.Stats(), par.Stats())
	}
}

// TestConcurrentTapsSeeEveryObservation attaches a mutex-guarded tap; under
// -race this validates the concurrent-tap
// path, and the count check validates no observation is dropped.
func TestConcurrentTapsSeeEveryObservation(t *testing.T) {
	c, err := NewCluster(synthUpstream(t), WithServers(4))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	belowN, aboveN := 0, 0
	c.SetTaps(
		TapFunc(func(Observation) { mu.Lock(); belowN++; mu.Unlock() }),
		TapFunc(func(Observation) { mu.Lock(); aboveN++; mu.Unlock() }),
	)
	qs := mixedQueries(10_000)
	stream := c.StartStream()
	for _, q := range qs {
		stream.Submit(q)
	}
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if uint64(belowN) != st.Queries {
		t.Errorf("below tap saw %d, want %d", belowN, st.Queries)
	}
	if uint64(aboveN) != st.UpstreamRTs {
		t.Errorf("above tap saw %d, want %d (one per upstream round trip)", aboveN, st.UpstreamRTs)
	}
}
