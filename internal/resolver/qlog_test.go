package resolver

import (
	"testing"
	"time"

	"dnsnoise/internal/authority"
	"dnsnoise/internal/cache"
	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/qlog"
)

// qlogCluster builds a 1-server cluster with a record-every-query event
// log draining into a memory sink.
func qlogCluster(t *testing.T, extra ...Option) (*Cluster, *qlog.MemorySink) {
	t.Helper()
	l := qlog.New(qlog.Config{Sample: 1})
	mem := qlog.NewMemorySink(256)
	l.AddSink(mem)
	opts := append([]Option{WithServers(1), WithQueryLog(l)}, extra...)
	c, err := NewCluster(testUpstream(t), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c, mem
}

// lastEvent flushes the cluster's recorders and returns the newest event.
func lastEvent(t *testing.T, c *Cluster, mem *qlog.MemorySink) qlog.Event {
	t.Helper()
	c.FlushQueryLog()
	evs := mem.Snapshot(qlog.Filter{})
	if len(evs) == 0 {
		t.Fatal("no qlog events recorded")
	}
	return evs[len(evs)-1]
}

func TestQueryLogMissThenHit(t *testing.T) {
	c, mem := qlogCluster(t)
	// Un-normalized input: the event must carry the canonical name.
	if _, err := c.Resolve(q("WWW.Example.COM.", t0)); err != nil {
		t.Fatal(err)
	}
	ev := lastEvent(t, c, mem)
	if ev.Name != "www.example.com" || ev.Qtype != "A" {
		t.Errorf("event identity = %q/%q, want www.example.com/A", ev.Name, ev.Qtype)
	}
	if ev.Outcome != qlog.OutcomeNoError || ev.CacheHit {
		t.Errorf("miss event = %+v, want noerror without cache_hit", ev)
	}
	if ev.AuthRTTs == 0 || ev.AuthNs == 0 {
		t.Errorf("miss event should record upstream work, got rtts=%d ns=%d", ev.AuthRTTs, ev.AuthNs)
	}
	if ev.LatencyNs == 0 {
		t.Error("event latency not recorded")
	}
	if ev.Client != 1 || ev.Server != 0 {
		t.Errorf("event client/server = %d/%d, want 1/0", ev.Client, ev.Server)
	}

	if _, err := c.Resolve(q("www.example.com", t0.Add(time.Second))); err != nil {
		t.Fatal(err)
	}
	ev = lastEvent(t, c, mem)
	if ev.Outcome != qlog.OutcomeHit || !ev.CacheHit {
		t.Errorf("hit event = %+v, want hit with cache_hit", ev)
	}
	if ev.AuthRTTs != 0 {
		t.Errorf("cache hit performed %d upstream round trips", ev.AuthRTTs)
	}
}

func TestQueryLogNXDomainWithoutNegCache(t *testing.T) {
	c, mem := qlogCluster(t)
	if _, err := c.Resolve(q("missing.example.com", t0)); err != nil {
		t.Fatal(err)
	}
	ev := lastEvent(t, c, mem)
	if ev.Outcome != qlog.OutcomeNXDomain || ev.CacheHit || ev.AuthRTTs != 1 {
		t.Errorf("event = %+v, want nxdomain recursed upstream", ev)
	}
}

// TestQueryLogEvictionCause fills a 2-entry cache and checks that the
// insertion displacing a live disposable entry records the worst cause.
func TestQueryLogEvictionCause(t *testing.T) {
	c, mem := qlogCluster(t, WithCacheSize(2))
	resolve := func(name string, cat cache.Category, at time.Time) {
		t.Helper()
		if _, err := c.Resolve(Query{Time: at, ClientID: 1, Name: name, Type: dnsmsg.TypeA, Category: cat}); err != nil {
			t.Fatal(err)
		}
	}
	// Fill the cache: one disposable-tagged entry, one other. The third
	// insertion happens in the same second — the timer wheel reclaims
	// dead entries at one-second granularity, and zero.example.com
	// (TTL 0) would otherwise be swept before the cache fills up.
	resolve("www.example.com", cache.CategoryDisposable, t0)
	resolve("zero.example.com", cache.CategoryOther, t0)
	// Third insertion displaces the LRU tail (www, still live).
	resolve("edge.akamai.net", cache.CategoryOther, t0)
	ev := lastEvent(t, c, mem)
	if ev.Evict != qlog.EvictLiveDisposable {
		t.Errorf("evict cause = %q, want live-disposable (event %+v)", ev.Evict, ev)
	}
}

// TestQueryLogErrorOutcome drives resolution into a hard failure (a CNAME
// loop) and checks the event records it.
func TestQueryLogErrorOutcome(t *testing.T) {
	up := authority.NewServer()
	z, err := authority.NewZone("loop.test")
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range []dnsmsg.RR{
		{Name: "a.loop.test", Type: dnsmsg.TypeCNAME, Class: dnsmsg.ClassIN, TTL: 60, RData: dnsmsg.Text("b.loop.test")},
		{Name: "b.loop.test", Type: dnsmsg.TypeCNAME, Class: dnsmsg.ClassIN, TTL: 60, RData: dnsmsg.Text("a.loop.test")},
	} {
		if err := z.Add(rr); err != nil {
			t.Fatal(err)
		}
	}
	if err := up.AddZone(z); err != nil {
		t.Fatal(err)
	}
	l := qlog.New(qlog.Config{Sample: 1})
	mem := qlog.NewMemorySink(16)
	l.AddSink(mem)
	c, err := NewCluster(up, WithServers(1), WithQueryLog(l))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Resolve(q("a.loop.test", t0)); err == nil {
		t.Fatal("CNAME loop should fail")
	}
	c.FlushQueryLog()
	evs := mem.Snapshot(qlog.Filter{Outcome: "error"})
	if len(evs) != 1 {
		t.Fatalf("error outcome events = %d, want 1", len(evs))
	}
}
