package resolver

import (
	"bytes"
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"dnsnoise/internal/authority"
	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/dnsname"
	"dnsnoise/internal/qlog"
)

// wireQuery encodes a one-question query, RD set as asked.
func wireQuery(t testing.TB, id uint16, name string, qtype dnsmsg.Type, class dnsmsg.Class, rd bool) []byte {
	t.Helper()
	var b dnsmsg.Builder
	b.Begin(nil, dnsmsg.Header{ID: id, RecursionDesired: rd})
	if err := b.Question(name, qtype, class); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// shardUpstream is testUpstream with a zone that synthesizes three
// addresses for any name under it, as the simulated disposable zones do.
func shardUpstream(t *testing.T) *authority.Server {
	up := testUpstream(t)
	z, err := authority.NewZone("dyn.test", authority.WithSynth(
		func(_ []byte, qtype dnsmsg.Type, dst []dnsmsg.RR) ([]dnsmsg.RR, bool) {
			for i := range 3 {
				dst = append(dst, dnsmsg.RR{Type: qtype, Class: dnsmsg.ClassIN, TTL: 5, RData: dnsmsg.IPv4(198, 18, 3, byte(i))})
			}
			return dst, true
		}))
	if err != nil {
		t.Fatal(err)
	}
	if err := up.AddZone(z); err != nil {
		t.Fatal(err)
	}
	return up
}

// TestShardMatchesResolve: a shard's reply to a wire query is, byte for
// byte, the encoding of what Resolve answers the same question on a twin
// cluster at the same time — header under the query's ID and RD bit with RA
// set, the normalized question, Resolve's rcode and answers — through hits,
// misses, a CNAME chain, a synthesized RRset, NODATA, NXDOMAIN (never
// cached), a zero TTL and expiries. Both clusters end with the same
// counters. A datagram the question reader refuses gets the authority's own
// reply.
func TestShardMatchesResolve(t *testing.T) {
	up := shardUpstream(t)
	shardCluster, err := NewCluster(up, WithServers(1))
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewCluster(up, WithServers(1))
	if err != nil {
		t.Fatal(err)
	}
	sh := shardCluster.Shard(0)
	questions := []struct {
		name  string
		qtype dnsmsg.Type
	}{
		{"www.example.com", dnsmsg.TypeA},
		{"WWW.Example.COM.", dnsmsg.TypeA},
		{"cdn.example.com", dnsmsg.TypeA},
		{"edge.akamai.net", dnsmsg.TypeAAAA},
		{"nope.example.com", dnsmsg.TypeA},
		{"zero.example.com", dnsmsg.TypeA},
		{"0.0.0.0.1.0.0.4e.abc123.avqs.Probe.dyn.test", dnsmsg.TypeA},
		{"x.dyn.test", dnsmsg.TypeTXT},
	}
	at := t0
	id := uint16(0)
	var dst []byte
	for round := range 4 {
		// Rounds a few seconds apart, then one past every short TTL.
		at = at.Add(time.Duration(1+round*round*10) * time.Second)
		for _, q := range questions {
			id++
			rd := id%3 != 0
			sh.SetNow(at)
			got, err := sh.AppendHandleWire(dst[:0], wireQuery(t, id, q.name, q.qtype, dnsmsg.ClassIN, rd))
			if err != nil {
				t.Fatal(err)
			}
			dst = got
			resp, err := twin.Resolve(Query{Time: at, Name: q.name, Type: q.qtype})
			if err != nil {
				t.Fatal(err)
			}
			want, err := (&dnsmsg.Message{
				Header:    dnsmsg.Header{ID: id, Response: true, RecursionDesired: rd, RecursionAvailable: true, RCode: resp.RCode},
				Questions: []dnsmsg.Question{{Name: dnsname.Normalize(q.name), Type: q.qtype, Class: dnsmsg.ClassIN}},
				Answers:   resp.Answers,
			}).Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("round %d, %s %v: shard replied %x, Resolve's answer encodes to %x", round, q.name, q.qtype, got, want)
			}
		}
	}
	if got, want := shardCluster.Stats(), twin.Stats(); got != want {
		t.Errorf("shard cluster counters %+v, twin's %+v", got, want)
	}
	if got, want := shardCluster.CacheStats(), twin.CacheStats(); !reflect.DeepEqual(got, want) {
		t.Errorf("shard cache counters %+v, twin's %+v", got, want)
	}
	if st := twin.Stats(); st.CacheHits == 0 || st.CacheMisses == 0 || st.NXDomains == 0 {
		t.Errorf("the sequence took no hit, miss or NXDOMAIN: %+v", st)
	}

	two := dnsmsg.NewQuery(7, "www.example.com", dnsmsg.TypeA)
	two.Questions = append(two.Questions, two.Questions[0])
	twoWire, err := two.Encode()
	if err != nil {
		t.Fatal(err)
	}
	plain := wireQuery(t, 8, "www.example.com", dnsmsg.TypeA, dnsmsg.ClassIN, true)
	for what, wire := range map[string][]byte{
		"two questions": twoWire,
		"no question":   plain[:12],
		"a cut name":    plain[:20],
		"a header only": plain[:11],
	} {
		got, err := sh.AppendHandleWire(nil, wire)
		if err != nil {
			t.Fatal(err)
		}
		want, err := up.HandleWire(wire)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: shard replied %x, the authority %x", what, got, want)
		}
	}
}

// TestShardRefusesOtherClasses: a question of a class other than IN is
// REFUSED under the class it asked, and touches neither the cache nor the
// upstream, so IN data is never cached under a CH question nor answered
// to one.
func TestShardRefusesOtherClasses(t *testing.T) {
	c, err := NewCluster(testUpstream(t), WithServers(1))
	if err != nil {
		t.Fatal(err)
	}
	sh := c.Shard(0)
	sh.SetNow(t0)
	for _, class := range []dnsmsg.Class{3, 4, 255} { // CH, HS, ANY
		got, err := sh.AppendHandleWire(nil, wireQuery(t, 0x77, "www.example.com", dnsmsg.TypeA, class, true))
		if err != nil {
			t.Fatal(err)
		}
		m, err := dnsmsg.Decode(got)
		if err != nil {
			t.Fatal(err)
		}
		if m.Header.ID != 0x77 || m.Header.RCode != dnsmsg.RCodeRefused || len(m.Answers) != 0 ||
			len(m.Questions) != 1 || m.Questions[0].Class != class || m.Questions[0].Name != "www.example.com" {
			t.Errorf("class %d: reply %+v", class, m)
		}
	}
	if st := c.Stats(); st.Queries != 0 || st.UpstreamRTs != 0 || c.servers[0].cache.Len() != 0 {
		t.Errorf("refused queries reached the resolver: %+v, %d cached", st, c.servers[0].cache.Len())
	}
	in, err := sh.AppendHandleWire(nil, wireQuery(t, 0x78, "www.example.com", dnsmsg.TypeA, dnsmsg.ClassIN, true))
	if err != nil {
		t.Fatal(err)
	}
	if m, err := dnsmsg.Decode(in); err != nil || m.Header.RCode != dnsmsg.RCodeNoError || len(m.Answers) != 1 {
		t.Errorf("IN after CH: %+v, %v", m, err)
	}
	if st := c.Stats(); st.CacheMisses != 1 {
		t.Errorf("the IN question after CH ones was not a miss: %+v", st)
	}
}

// TestShardLogsWhatItDoesNotResolve: at sample 1, the FORMERR of an
// unreadable question and the REFUSED of a CH one each leave one event,
// outcome error, the CH one under its name and qtype, as the front door
// logs a query an authority rejects; an IN query after them is logged as
// it resolves.
func TestShardLogsWhatItDoesNotResolve(t *testing.T) {
	l := qlog.New(qlog.Config{Sample: 1})
	mem := qlog.NewMemorySink(16)
	l.AddSink(mem)
	c, err := NewCluster(testUpstream(t), WithServers(1), WithQueryLog(l))
	if err != nil {
		t.Fatal(err)
	}
	sh := c.Shard(0)
	sh.SetNow(t0)
	for _, query := range [][]byte{
		{0xBE, 0xEF, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0}, // a question promised, none carried
		wireQuery(t, 0x77, "www.example.com", dnsmsg.TypeA, 3, true),
		wireQuery(t, 0x78, "www.example.com", dnsmsg.TypeA, dnsmsg.ClassIN, true),
	} {
		if _, err := sh.AppendHandleWire(nil, query); err != nil {
			t.Fatal(err)
		}
	}
	evs := mem.Snapshot(qlog.Filter{})
	slices.SortFunc(evs, func(a, b qlog.Event) int { return cmp.Compare(a.ID, b.ID) })
	type seen struct {
		name, qtype string
		outcome     qlog.Outcome
	}
	var got []seen
	for _, ev := range evs {
		got = append(got, seen{ev.Name, ev.Qtype, ev.Outcome})
	}
	want := []seen{{"", "", qlog.OutcomeError}, {"www.example.com", "A", qlog.OutcomeError}, {"www.example.com", "A", qlog.OutcomeNoError}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("events %+v, want %+v", got, want)
	}
}

// TestShardZeroAlloc: a shard answers a cached question — a 60-byte,
// mixed-case name with a trailing dot — without allocating, and a cold
// miss allocates no more than its cache key's string.
func TestShardZeroAlloc(t *testing.T) {
	c := allocTestCluster(t)
	sh := c.Shard(0)
	sh.SetNow(t0)
	hit := wireQuery(t, 1, longName, dnsmsg.TypeA, dnsmsg.ClassIN, true)
	dst, err := sh.AppendHandleWire(nil, hit)
	if err != nil {
		t.Fatal(err)
	}
	check := func(dst []byte, answers uint16) {
		if m, err := dnsmsg.Decode(dst); err != nil || m.Header.RCode != dnsmsg.RCodeNoError || len(m.Answers) != int(answers) {
			t.Fatalf("reply %+v, %v", m, err)
		}
	}
	allocs := testing.AllocsPerRun(500, func() {
		dst, _ = sh.AppendHandleWire(dst[:0], hit)
	})
	check(dst, 1)
	if allocs != 0 {
		t.Errorf("a shard hit allocated %.1f times per query, want 0", allocs)
	}

	const runs = 200
	cold := make([][]byte, runs+1)
	for i := range cold {
		cold[i] = wireQuery(t, 2, fmt.Sprintf("cold%d.0.0.0.1.0.0.4e.abc123.OneShot.alloc.test", i), dnsmsg.TypeA, dnsmsg.ClassIN, true)
	}
	next := 0
	allocs = testing.AllocsPerRun(runs, func() {
		dst, _ = sh.AppendHandleWire(dst[:0], cold[next])
		next++
	})
	check(dst, 1)
	budget := 1.0
	if raceEnabled {
		budget++
	}
	if allocs > budget {
		t.Errorf("a shard's cold miss allocated %.1f times per query, want at most %.0f (the key's string)", allocs, budget)
	}
	if st := c.Stats(); st.CacheMisses != runs+2 {
		t.Errorf("%d misses, want %d", st.CacheMisses, runs+2)
	}
}
