package resolver

import (
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

// TestResolveHitPathZeroAlloc is the PR's headline guard: once an answer is
// cached, resolving the same (name, qtype) again must not allocate — no
// cache-key string, no *list.Element, no interface boxing, no Normalize
// copy. This is what keeps GC pressure off the steady-state measurement
// loop.
func TestResolveHitPathZeroAlloc(t *testing.T) {
	c := allocTestCluster(t)
	t0 := time.Date(2011, 12, 1, 0, 0, 0, 0, time.UTC)
	q := Query{Time: t0, ClientID: 7, Name: "host1.alloc.test", Type: dnsmsg.TypeA}
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
		t.Errorf("cache-hit Resolve allocated %.1f times per op, want 0", allocs)
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
