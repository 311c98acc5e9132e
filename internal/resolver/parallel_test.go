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
	if err := par.ResolveBatch(qs); err != nil {
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

// TestResolveStreamChannel exercises the channel-driven entry point with a
// concurrent producer.
func TestResolveStreamChannel(t *testing.T) {
	c, err := NewCluster(synthUpstream(t), WithServers(3))
	if err != nil {
		t.Fatal(err)
	}
	qs := mixedQueries(5_000)
	ch := make(chan Query, 256)
	go func() {
		defer close(ch)
		for _, q := range qs {
			ch <- q
		}
	}()
	if err := c.ResolveStream(ch); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Queries; got != uint64(len(qs)) {
		t.Errorf("Queries = %d, want %d", got, len(qs))
	}
}

// TestBufferedTapsDeterministicOrder runs the same batch twice in buffered
// mode and requires the delivered observation sequences to be identical —
// the replay contract tests rely on.
func TestBufferedTapsDeterministicOrder(t *testing.T) {
	run := func() []Observation {
		c, err := NewCluster(synthUpstream(t), WithServers(4))
		if err != nil {
			t.Fatal(err)
		}
		var below []Observation
		var mu sync.Mutex // not needed in buffered mode, but cheap insurance for the test
		c.SetTaps(TapFunc(func(ob Observation) {
			mu.Lock()
			below = append(below, ob)
			mu.Unlock()
		}), nil)
		if err := c.ResolveBatch(mixedQueries(3_000), WithBufferedTaps()); err != nil {
			t.Fatal(err)
		}
		return below
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("observation counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("observation %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Buffered drain delivers servers in index order.
	lastServer := -1
	for _, ob := range a {
		if ob.Server < lastServer {
			t.Fatalf("server order regressed: %d after %d", ob.Server, lastServer)
		}
		lastServer = ob.Server
	}
}

// TestConcurrentTapsSeeEveryObservation attaches a mutex-guarded tap in
// direct (unbuffered) mode; under -race this validates the concurrent-tap
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
	if err := c.ResolveBatch(qs); err != nil {
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
