package chrstat

import (
	"fmt"
	"net/netip"
	"reflect"
	"sync"
	"testing"
	"time"

	"dnsnoise/internal/cache"
	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/resolver"
	"dnsnoise/internal/stats"
)

var t0 = time.Date(2011, 11, 10, 0, 0, 0, 0, time.UTC)

func rrA(name, ip string) dnsmsg.RR {
	a := netip.MustParseAddr(ip).As4()
	return dnsmsg.RR{Name: name, Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN, TTL: 300, RData: dnsmsg.IPv4(a[0], a[1], a[2], a[3])}
}

func obBelow(rr dnsmsg.RR, cat cache.Category) resolver.Observation {
	return resolver.Observation{Time: t0, QName: rr.Name, RR: rr, RCode: dnsmsg.RCodeNoError, Category: cat}
}

func obAbove(rr dnsmsg.RR, cat cache.Category) resolver.Observation {
	return resolver.Observation{Time: t0, QName: rr.Name, RR: rr, RCode: dnsmsg.RCodeNoError, Category: cat}
}

func TestDHRComputation(t *testing.T) {
	c := NewCollector()
	rr := rrA("www.example.com", "192.0.2.1")
	// 5 queries below, 2 misses above -> DHR = 3/5.
	for i := 0; i < 5; i++ {
		c.ObserveBelow(obBelow(rr, cache.CategoryOther))
	}
	for i := 0; i < 2; i++ {
		c.ObserveAbove(obAbove(rr, cache.CategoryOther))
	}
	recs := c.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d, want 1", len(recs))
	}
	if got := recs[0].DHR(); got != 0.6 {
		t.Errorf("DHR = %v, want 0.6 (paper's example: 2 misses, 5 queries)", got)
	}
	if recs[0].Misses() != 2 {
		t.Errorf("Misses = %d, want 2", recs[0].Misses())
	}
}

func TestDHRClampsAtZero(t *testing.T) {
	c := NewCollector()
	rr := rrA("x.example.com", "192.0.2.2")
	c.ObserveBelow(obBelow(rr, cache.CategoryOther))
	c.ObserveAbove(obAbove(rr, cache.CategoryOther))
	c.ObserveAbove(obAbove(rr, cache.CategoryOther)) // above > below
	if got := c.Records()[0].DHR(); got != 0 {
		t.Errorf("DHR = %v, want clamp to 0", got)
	}
	var empty RRStat
	if empty.DHR() != 0 {
		t.Error("zero-query record DHR should be 0")
	}
}

func TestCHRSampleMultiplicity(t *testing.T) {
	c := NewCollector()
	rr := rrA("www.example.com", "192.0.2.1")
	// Paper's worked example (Section III-C2): 5 queries, 2 misses ->
	// CHR value 0.6 counted twice.
	for i := 0; i < 5; i++ {
		c.ObserveBelow(obBelow(rr, cache.CategoryOther))
	}
	for i := 0; i < 2; i++ {
		c.ObserveAbove(obAbove(rr, cache.CategoryOther))
	}
	sample := c.CHRSample(nil, 0)
	if len(sample) != 2 {
		t.Fatalf("CHR sample = %v, want two entries", sample)
	}
	for _, v := range sample {
		if v != 0.6 {
			t.Errorf("CHR = %v, want 0.6", v)
		}
	}
	// Cap must bound the multiplicity.
	if got := len(c.CHRSample(nil, 1)); got != 1 {
		t.Errorf("capped CHR sample = %d, want 1", got)
	}
}

func TestSeparateRRsByRData(t *testing.T) {
	c := NewCollector()
	c.ObserveBelow(obBelow(rrA("x.example.com", "192.0.2.1"), cache.CategoryOther))
	c.ObserveBelow(obBelow(rrA("x.example.com", "192.0.2.2"), cache.CategoryOther))
	if c.NumRecords() != 2 {
		t.Errorf("records = %d, want 2 (distinct rdata)", c.NumRecords())
	}
	byName := c.ByName()
	if len(byName["x.example.com"]) != 2 {
		t.Errorf("ByName = %v", byName)
	}
}

func TestNXDomainCounting(t *testing.T) {
	c := NewCollector()
	nx := resolver.Observation{Time: t0, QName: "missing.example.com", RCode: dnsmsg.RCodeNXDomain}
	c.ObserveBelow(nx)
	c.ObserveAbove(nx)
	below, above, belowNX, aboveNX := c.Totals()
	if below != 1 || above != 1 || belowNX != 1 || aboveNX != 1 {
		t.Errorf("totals = %d %d %d %d", below, above, belowNX, aboveNX)
	}
	if c.NumRecords() != 0 {
		t.Errorf("NX must not create RR records, got %d", c.NumRecords())
	}
	// The queried name is still counted as queried, not resolved.
	qt, _ := c.QueriedNames(nil)
	rt, _ := c.ResolvedNames(nil)
	if qt != 1 || rt != 0 {
		t.Errorf("queried = %d resolved = %d, want 1 / 0", qt, rt)
	}
}

func TestQueriedVsResolvedPredicates(t *testing.T) {
	c := NewCollector()
	c.ObserveBelow(obBelow(rrA("a.disp.test", "127.0.0.1"), cache.CategoryDisposable))
	c.ObserveBelow(obBelow(rrA("www.ok.test", "192.0.2.1"), cache.CategoryOther))
	c.ObserveBelow(resolver.Observation{Time: t0, QName: "typo.ok.test", RCode: dnsmsg.RCodeNXDomain})
	isDisp := func(name string) bool { return name == "a.disp.test" }
	qt, qm := c.QueriedNames(isDisp)
	if qt != 3 || qm != 1 {
		t.Errorf("queried = (%d, %d), want (3, 1)", qt, qm)
	}
	rt, rm := c.ResolvedNames(isDisp)
	if rt != 2 || rm != 1 {
		t.Errorf("resolved = (%d, %d), want (2, 1)", rt, rm)
	}
}

func TestDHRSampleAndLookupVolumes(t *testing.T) {
	c := NewCollector()
	hot := rrA("hot.example.com", "192.0.2.1")
	cold := rrA("cold.example.com", "192.0.2.2")
	for i := 0; i < 10; i++ {
		c.ObserveBelow(obBelow(hot, cache.CategoryOther))
	}
	c.ObserveAbove(obAbove(hot, cache.CategoryOther))
	c.ObserveBelow(obBelow(cold, cache.CategoryDisposable))
	c.ObserveAbove(obAbove(cold, cache.CategoryDisposable))

	dhrs := c.DHRSample(nil)
	if len(dhrs) != 2 {
		t.Fatalf("DHR sample = %v", dhrs)
	}
	if got := stats.FractionZero(dhrs); got != 0.5 {
		t.Errorf("zero-DHR fraction = %v, want 0.5", got)
	}
	vols := c.LookupVolumes(func(st *RRStat) bool { return st.Category == cache.CategoryOther })
	if len(vols) != 1 || vols[0] != 10 {
		t.Errorf("volumes = %v, want [10]", vols)
	}
}

func TestTailStats(t *testing.T) {
	c := NewCollector()
	// 3 cold disposable records, 1 cold other, 1 hot other.
	for i := 0; i < 3; i++ {
		rr := rrA("d"+string(rune('a'+i))+".disp.test", "127.0.0.1")
		c.ObserveBelow(obBelow(rr, cache.CategoryDisposable))
	}
	c.ObserveBelow(obBelow(rrA("cold.ok.test", "192.0.2.9"), cache.CategoryOther))
	hot := rrA("hot.ok.test", "192.0.2.1")
	for i := 0; i < 50; i++ {
		c.ObserveBelow(obBelow(hot, cache.CategoryOther))
	}
	ts := c.Tail(func(st *RRStat) bool { return st.Below < 10 })
	if ts.Records != 5 || ts.Tail != 4 {
		t.Fatalf("tail stats = %+v", ts)
	}
	if ts.TailDisposableFrac != 0.75 {
		t.Errorf("TailDisposableFrac = %v, want 0.75", ts.TailDisposableFrac)
	}
	if ts.DisposableTailFrac != 1.0 {
		t.Errorf("DisposableTailFrac = %v, want 1.0", ts.DisposableTailFrac)
	}
	if ts.TailFrac != 0.8 {
		t.Errorf("TailFrac = %v, want 0.8", ts.TailFrac)
	}
}

func TestHourlyCounter(t *testing.T) {
	h := NewHourlyCounter()
	h.AddSeries("all", func(resolver.Observation) bool { return true })
	h.AddSeries("nx", func(ob resolver.Observation) bool { return ob.RCode == dnsmsg.RCodeNXDomain })
	tap := h.Tap()
	tap.Observe(resolver.Observation{Time: t0, RR: rrA("a.test", "192.0.2.1")})
	tap.Observe(resolver.Observation{Time: t0.Add(30 * time.Minute), RCode: dnsmsg.RCodeNXDomain})
	tap.Observe(resolver.Observation{Time: t0.Add(90 * time.Minute), RR: rrA("b.test", "192.0.2.2")})

	all := h.Series("all")
	if len(all) != 2 {
		t.Fatalf("all series = %v", all)
	}
	if all[0].Volume != 2 || all[1].Volume != 1 {
		t.Errorf("all volumes = %v", all)
	}
	if all[0].UnixHour >= all[1].UnixHour {
		t.Error("series not sorted by hour")
	}
	nx := h.Series("nx")
	if len(nx) != 1 || nx[0].Volume != 1 {
		t.Errorf("nx series = %v", nx)
	}
	if h.Series("unknown") != nil {
		t.Error("unknown series should be nil")
	}
	names := h.SeriesNames()
	if len(names) != 2 || names[0] != "all" || names[1] != "nx" {
		t.Errorf("SeriesNames = %v", names)
	}
}

// TestHourlyCounterSeqVsParallel: the lock-striped counter must report the
// same merged series whether observations arrive from one goroutine or
// many — per-(series, hour) volumes are sums, so order cannot matter.
func TestHourlyCounterSeqVsParallel(t *testing.T) {
	mkObs := func() []resolver.Observation {
		var obs []resolver.Observation
		for i := 0; i < 3000; i++ {
			ob := resolver.Observation{
				Time:  t0.Add(time.Duration(i) * 37 * time.Second),
				QName: fmt.Sprintf("host%d.zone%d.test", i%800, i%23),
			}
			if i%7 == 0 {
				ob.RCode = dnsmsg.RCodeNXDomain
			} else {
				ob.RR = rrA(ob.QName, "192.0.2.9")
			}
			obs = append(obs, ob)
		}
		return obs
	}
	mkCounter := func() *HourlyCounter {
		h := NewHourlyCounter()
		h.AddSeries("all", func(resolver.Observation) bool { return true })
		h.AddSeries("nx", func(ob resolver.Observation) bool { return ob.RCode == dnsmsg.RCodeNXDomain })
		return h
	}
	obs := mkObs()

	seq := mkCounter()
	tap := seq.Tap()
	for _, ob := range obs {
		tap.Observe(ob)
	}

	par := mkCounter()
	ptap := par.Tap()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(obs); i += workers {
				ptap.Observe(obs[i])
			}
		}(w)
	}
	wg.Wait()

	for _, name := range []string{"all", "nx"} {
		s, p := seq.Series(name), par.Series(name)
		if !reflect.DeepEqual(s, p) {
			t.Errorf("series %q diverges:\nseq %v\npar %v", name, s, p)
		}
		if len(s) == 0 {
			t.Errorf("series %q is empty", name)
		}
	}
}

func TestClientTracking(t *testing.T) {
	c := NewCollector()
	rr := rrA("shared.example.com", "192.0.2.1")
	for client := uint32(0); client < 5; client++ {
		c.ObserveBelow(resolver.Observation{
			Time: t0, ClientID: client, QName: rr.Name, RR: rr, RCode: dnsmsg.RCodeNoError,
		})
	}
	// Repeats from the same client do not inflate the count.
	c.ObserveBelow(resolver.Observation{
		Time: t0, ClientID: 2, QName: rr.Name, RR: rr, RCode: dnsmsg.RCodeNoError,
	})
	st := c.Records()[0]
	n, saturated := st.Clients()
	if n != 5 || saturated {
		t.Errorf("Clients = (%d, %v), want (5, false)", n, saturated)
	}
	counts := c.ClientCounts(nil)
	if len(counts) != 1 || counts[0] != 5 {
		t.Errorf("ClientCounts = %v", counts)
	}
}

func TestClientTrackingSaturates(t *testing.T) {
	c := NewCollector()
	rr := rrA("hot.example.com", "192.0.2.1")
	for client := uint32(0); client < 200; client++ {
		c.ObserveBelow(resolver.Observation{
			Time: t0, ClientID: client, QName: rr.Name, RR: rr, RCode: dnsmsg.RCodeNoError,
		})
	}
	n, saturated := c.Records()[0].Clients()
	if n != 64 || !saturated {
		t.Errorf("Clients = (%d, %v), want (64, true)", n, saturated)
	}
}
