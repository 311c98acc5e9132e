package resolver

import (
	"strings"
	"testing"
	"time"

	"dnsnoise/internal/authority"
	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/qlog"
)

// allocTestCluster builds a 2-server cluster over a synthetic zone so every
// name resolves, plus the query set used to warm the caches.
func allocTestCluster(t *testing.T, opts ...Option) *Cluster {
	t.Helper()
	up := authority.NewServer()
	z, err := authority.NewZone("alloc.test", authority.WithSynth(
		func(_ []byte, qtype dnsmsg.Type, dst []dnsmsg.RR) ([]dnsmsg.RR, bool) {
			return append(dst, dnsmsg.RR{Type: qtype, Class: dnsmsg.ClassIN, TTL: 3600, RData: dnsmsg.IPv4(198, 18, 0, 1)}), true
		}))
	if err != nil {
		t.Fatal(err)
	}
	if err := up.AddZone(z); err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(up, append([]Option{WithServers(2)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// longName is a disposable-looking name as a stranger's query may spell
// it: 60 bytes, mixed case, a trailing dot. Resolve and the wire reader
// both normalize it to the same key, which is longer than the 32 bytes a
// string conversion may borrow from the stack.
const longName = "0.0.0.0.1.0.0.4E.ABC123.avqs.McAfee.OneShotProbe.Alloc.Test."

// TestResolveHitPathZeroAlloc is the hit path's headline guard: once an
// answer is cached, resolving the same (name, qtype) again must not
// allocate — no cache-key string, no interface boxing, no Normalize copy
// beyond the fast path's reslice — short name or long. This is what keeps
// GC pressure off the steady-state measurement loop.
func TestResolveHitPathZeroAlloc(t *testing.T) {
	c := allocTestCluster(t)
	t0 := time.Date(2011, 12, 1, 0, 0, 0, 0, time.UTC)
	for _, name := range []string{"host1.alloc.test", strings.ToLower(longName)} {
		q := Query{Time: t0, ClientID: 7, Name: name, Type: dnsmsg.TypeA}
		if _, err := c.Resolve(q); err != nil { // warm: miss, fills the cache
			t.Fatal(err)
		}
		q.Time = t0.Add(time.Second) // well inside the 3600s TTL
		allocs := testing.AllocsPerRun(200, func() {
			resp, err := c.Resolve(q)
			if err != nil || !resp.FromCache {
				t.Fatal("expected cache hit", err)
			}
		})
		if allocs != 0 {
			t.Errorf("cache-hit Resolve of a %d-byte name allocated %.1f times per op, want 0", len(name), allocs)
		}
	}
}

// TestWireProbeZeroAlloc: a question read off the wire probes the cache by
// its name's bytes, with one body after the probe. On a server that a
// Resolve of the same name warmed, a probe hit returns the []RR a Resolve
// hit returns, moves the same counters and taps the same observations, and
// allocates nothing. A probe miss spells the name once and recurses, and
// its answer is cached for Resolve.
func TestWireProbeZeroAlloc(t *testing.T) {
	c := allocTestCluster(t)
	seen := 0
	key := strings.ToLower(strings.TrimSuffix(longName, "."))
	c.SetTaps(TapFunc(func(ob Observation) {
		if ob.QName != key {
			t.Fatalf("tapped QName %q", ob.QName)
		}
		seen++
	}), nil)
	t0 := time.Date(2011, 12, 1, 0, 0, 0, 0, time.UTC)
	q := Query{Time: t0, ClientID: 7, Name: longName, Type: dnsmsg.TypeA}
	if _, err := c.Resolve(q); err != nil { // warm: miss, fills the cache
		t.Fatal(err)
	}
	q.Time = t0.Add(time.Second)
	s := c.servers[c.pickServer(q.ClientID)]

	var b dnsmsg.Builder
	b.Begin(nil, dnsmsg.Header{ID: 0xBEEF, RecursionDesired: true})
	if err := b.Question(longName, q.Type, dnsmsg.ClassIN); err != nil {
		t.Fatal(err)
	}
	wire := b.Bytes()
	scratch := make([]byte, 0, 256)
	probe := func(wire []byte) Response {
		name, _, qtype, ok := dnsmsg.AppendSoleQuestion(scratch[:0], wire)
		if !ok {
			t.Fatal("AppendSoleQuestion refused the query")
		}
		resp, err := c.resolveOn(s, Query{Time: q.Time, ClientID: q.ClientID, Type: qtype}, name)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	type reading struct {
		st        Stats
		hits, obs uint64
	}
	read := func() reading {
		return reading{c.PerServerStats()[s.idx], s.cache.Stats().Hits, uint64(seen)}
	}
	r0 := read()
	viaName, err := c.Resolve(q)
	if err != nil {
		t.Fatal(err)
	}
	r1 := read()
	viaWire := probe(wire)
	r2 := read()
	if !viaName.FromCache || !viaWire.FromCache || viaWire.RCode != viaName.RCode ||
		len(viaWire.Answers) == 0 || len(viaWire.Answers) != len(viaName.Answers) || &viaWire.Answers[0] != &viaName.Answers[0] {
		t.Fatalf("wire probe %+v, Resolve %+v: want the same cached []RR", viaWire, viaName)
	}
	for _, d := range []struct {
		what           string
		byName, byWire uint64
	}{
		{"queries", r1.st.Queries - r0.st.Queries, r2.st.Queries - r1.st.Queries},
		{"resolver hits", r1.st.CacheHits - r0.st.CacheHits, r2.st.CacheHits - r1.st.CacheHits},
		{"resolver misses", r1.st.CacheMisses - r0.st.CacheMisses, r2.st.CacheMisses - r1.st.CacheMisses},
		{"other-category queries", r1.st.QueriesByCategory[0] - r0.st.QueriesByCategory[0], r2.st.QueriesByCategory[0] - r1.st.QueriesByCategory[0]},
		{"cache hits", r1.hits - r0.hits, r2.hits - r1.hits},
		{"tapped observations", r1.obs - r0.obs, r2.obs - r1.obs},
	} {
		if d.byName != d.byWire {
			t.Errorf("%s: a Resolve hit moved %d, a wire probe hit %d", d.what, d.byName, d.byWire)
		}
	}
	if hits := r2.st.CacheHits - r1.st.CacheHits; hits != 1 {
		t.Errorf("a wire probe hit counted %d resolver hits, want 1", hits)
	}

	allocs := testing.AllocsPerRun(200, func() {
		if resp := probe(wire); !resp.FromCache {
			t.Fatal("expected a cache hit")
		}
	})
	if allocs != 0 {
		t.Errorf("wire probe hit on a %d-byte name allocated %.1f times per op, want 0", len(longName), allocs)
	}

	c.SetTaps(nil, nil)
	cold := strings.Replace(longName, "OneShotProbe", "OtherProbe", 1)
	b.Begin(nil, dnsmsg.Header{ID: 0xBEF0, RecursionDesired: true})
	if err := b.Question(cold, q.Type, dnsmsg.ClassIN); err != nil {
		t.Fatal(err)
	}
	if resp := probe(b.Bytes()); resp.FromCache || len(resp.Answers) == 0 {
		t.Fatalf("cold wire probe %+v: want a recursed answer", resp)
	}
	if resp, err := c.Resolve(Query{Time: q.Time, ClientID: q.ClientID, Name: cold, Type: q.Type}); err != nil || !resp.FromCache {
		t.Fatalf("Resolve after a cold wire probe = %+v, %v: want the probe's answer cached", resp, err)
	}
}

// TestResolveHitPathZeroAllocWithTap re-checks the guard with a below tap
// installed: delivering the observation must also be allocation-free, since
// production runs always have at least one collector attached.
func TestResolveHitPathZeroAllocWithTap(t *testing.T) {
	c := allocTestCluster(t)
	seen := 0
	c.SetTaps(TapFunc(func(ob Observation) { seen++ }), nil)
	t0 := time.Date(2011, 12, 1, 0, 0, 0, 0, time.UTC)
	q := Query{Time: t0, ClientID: 7, Name: "host2.alloc.test", Type: dnsmsg.TypeA}
	if _, err := c.Resolve(q); err != nil {
		t.Fatal(err)
	}
	q.Time = t0.Add(time.Second)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := c.Resolve(q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("cache-hit Resolve with tap allocated %.1f times per op, want 0", allocs)
	}
	if seen == 0 {
		t.Error("tap saw no observations")
	}
}

// TestResolveHitPathZeroAllocQlogSampleMiss pins qlog's disabled-cost
// contract from the other side: with a log attached but the head sampler
// never firing inside the measured window, every query pays only the tick
// increment — still zero allocations on the hit path.
func TestResolveHitPathZeroAllocQlogSampleMiss(t *testing.T) {
	l := qlog.New(qlog.Config{Sample: 1 << 30})
	l.AddSink(qlog.NewMemorySink(16))
	c := allocTestCluster(t, WithQueryLog(l))
	t0 := time.Date(2011, 12, 1, 0, 0, 0, 0, time.UTC)
	q := Query{Time: t0, ClientID: 7, Name: "host4.alloc.test", Type: dnsmsg.TypeA}
	if _, err := c.Resolve(q); err != nil {
		t.Fatal(err)
	}
	q.Time = t0.Add(time.Second)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := c.Resolve(q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("qlog sample-miss hit allocated %.1f times per op, want 0", allocs)
	}
}

// TestResolveHitPathZeroAllocQlogSampled goes further: even when every
// query is sampled into in-memory sinks (the -metrics-addr live shape),
// staging the event and draining the ring into the memory and exemplar
// sinks must not allocate. Only a file sink's JSON encoding costs heap.
func TestResolveHitPathZeroAllocQlogSampled(t *testing.T) {
	l := qlog.New(qlog.Config{Sample: 1, RingSize: 64})
	l.AddSink(qlog.NewMemorySink(256))
	l.AddSink(qlog.NewExemplarSink())
	c := allocTestCluster(t, WithQueryLog(l))
	t0 := time.Date(2011, 12, 1, 0, 0, 0, 0, time.UTC)
	q := Query{Time: t0, ClientID: 7, Name: "host5.alloc.test", Type: dnsmsg.TypeA}
	if _, err := c.Resolve(q); err != nil {
		t.Fatal(err)
	}
	q.Time = t0.Add(time.Second)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := c.Resolve(q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("qlog sampled hit allocated %.1f times per op, want 0", allocs)
	}
}

// TestResolveHitPathZeroAllocMixedCaseTTL asserts the Normalize fast path:
// an already-lowercase name with no trailing dot costs nothing even though
// the query goes through full normalization each time.
func TestResolveNormalizeTrailingDotZeroAlloc(t *testing.T) {
	c := allocTestCluster(t)
	t0 := time.Date(2011, 12, 1, 0, 0, 0, 0, time.UTC)
	// Trailing dot strips by reslicing — still no allocation.
	q := Query{Time: t0, ClientID: 3, Name: "host3.alloc.test.", Type: dnsmsg.TypeA}
	if _, err := c.Resolve(q); err != nil {
		t.Fatal(err)
	}
	q.Time = t0.Add(time.Second)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := c.Resolve(q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("trailing-dot hit allocated %.1f times per op, want 0", allocs)
	}
}
