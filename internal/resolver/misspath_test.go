package resolver

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"dnsnoise/internal/authority"
	"dnsnoise/internal/dnsmsg"
)

// coldNames registers n single-A names in a static zone and returns them.
func coldNames(t *testing.T, up *authority.Server, n int) []string {
	t.Helper()
	z, err := authority.NewZone("cold.test")
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("h%d.cold.test", i)
		rr := dnsmsg.RR{Name: names[i], Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN, TTL: 300, RData: dnsmsg.IPv4(192, 0, 2, byte(i%250))}
		if err := z.Add(rr); err != nil {
			t.Fatal(err)
		}
	}
	if err := up.AddZone(z); err != nil {
		t.Fatal(err)
	}
	return names
}

// raceEnabled is set under the race detector (race_test.go). sync.Pool
// drops a quarter of its Puts there by design, so the authority rebuilds
// its pooled scratch now and then, and a miss budget allows one more.
var raceEnabled bool

// TestResolveMissPathZeroAllocBudget guards the disposable path: a cold
// resolve — query out, authority, response in, cache fill — costs only what
// outlives the call, and for a single-A name or an NXDOMAIN that is nothing.
// The authority reads the question where it lies and answers from its
// bytes, the reply's own names are the name that was asked, its authority
// section is walked and not spelled, a one-record RRset lives in the cache
// slot, and the wire buffers, both Messages and the compression table are
// reused scratch or stack. A 3-address RRset keeps one slice of its own.
// The budgets are the readings.
func TestResolveMissPathZeroAllocBudget(t *testing.T) {
	const runs = 200
	up := authority.NewServer()
	names := coldNames(t, up, runs+2)
	z, err := authority.NewZone("three.test", authority.WithSynth(
		func(_ []byte, qtype dnsmsg.Type, dst []dnsmsg.RR) ([]dnsmsg.RR, bool) {
			for i := range 3 {
				dst = append(dst, dnsmsg.RR{Type: qtype, Class: dnsmsg.ClassIN, TTL: 300, RData: dnsmsg.IPv4(198, 18, 3, byte(i))})
			}
			return dst, true
		}))
	if err != nil {
		t.Fatal(err)
	}
	if err := up.AddZone(z); err != nil {
		t.Fatal(err)
	}
	missing := make([]string, runs+2)
	three := make([]string, runs+2)
	for i := range missing {
		missing[i] = fmt.Sprintf("gone%d.cold.test", i)
		three[i] = fmt.Sprintf("h%d.three.test", i)
	}
	for _, tc := range []struct {
		what    string
		names   []string
		rcode   dnsmsg.RCode
		answers int
		budget  float64
	}{
		{"single-A", names, dnsmsg.RCodeNoError, 1, 0},
		{"NXDOMAIN", missing, dnsmsg.RCodeNXDomain, 0, 0},
		{"3-address", three, dnsmsg.RCodeNoError, 3, 1},
	} {
		c, err := NewCluster(up, WithServers(1))
		if err != nil {
			t.Fatal(err)
		}
		// Warm the scratch buffers with one miss; every later name is new.
		if _, err := c.Resolve(q(tc.names[0], t0)); err != nil {
			t.Fatal(err)
		}
		next := 1
		allocs := testing.AllocsPerRun(runs, func() {
			resp, err := c.Resolve(q(tc.names[next], t0))
			next++
			if err != nil || resp.FromCache || resp.RCode != tc.rcode || len(resp.Answers) != tc.answers {
				t.Fatalf("cold %s resolve = %+v, %v", tc.what, resp, err)
			}
		})
		t.Logf("cold %s resolve: %.1f allocs/op", tc.what, allocs)
		budget := tc.budget
		if raceEnabled {
			budget++
		}
		if allocs > budget {
			t.Errorf("cold %s Resolve allocated %.1f times per op, budget %.0f", tc.what, allocs, budget)
		}
	}
}

// TestMissScratchDoesNotLeakIntoKeptAnswers: the answers a miss hands back
// (and the cache keeps) must be the caller's own, not views of the server's
// exchange scratch — later misses on the same server, positive and
// negative, leave them untouched.
func TestMissScratchDoesNotLeakIntoKeptAnswers(t *testing.T) {
	up := authority.NewServer()
	z, err := authority.NewZone("multi.test", authority.WithSynth(
		func(name []byte, qtype dnsmsg.Type, dst []dnsmsg.RR) ([]dnsmsg.RR, bool) {
			if qtype != dnsmsg.TypeA || name[0] == 'x' {
				return dst, false
			}
			for i := range 3 {
				dst = append(dst, dnsmsg.RR{Type: qtype, Class: dnsmsg.ClassIN, TTL: 300, RData: dnsmsg.IPv4(198, 18, byte(len(name)), byte(i))})
			}
			return dst, true
		}))
	if err != nil {
		t.Fatal(err)
	}
	if err := up.AddZone(z); err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(up, WithServers(1))
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.Resolve(q("first.multi.test", t0))
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Answers) != 3 {
		t.Fatalf("first answers = %+v", first.Answers)
	}
	kept := first.Answers
	snapshot := append([]dnsmsg.RR(nil), kept...)

	nx, err := c.Resolve(q("x-missing.multi.test", t0))
	if err != nil {
		t.Fatal(err)
	}
	if nx.RCode != dnsmsg.RCodeNXDomain || len(nx.Answers) != 0 {
		t.Errorf("NXDOMAIN after a 3-answer miss = %+v, want no answers", nx)
	}
	for i := 0; i < 4; i++ {
		if _, err := c.Resolve(q(fmt.Sprintf("later-%d.multi.test", i), t0)); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(kept, snapshot) {
		t.Errorf("answers kept from an earlier miss changed:\n got %+v\nwant %+v", kept, snapshot)
	}
	hit, err := c.Resolve(q("first.multi.test", t0.Add(time.Second)))
	if err != nil {
		t.Fatal(err)
	}
	if !hit.FromCache || !reflect.DeepEqual(hit.Answers, snapshot) {
		t.Errorf("cached entry changed under later misses: %+v", hit)
	}
}

// signedUpstream serves zones signed-0.test .. signed-(n-1).test, each
// answering every A query with two records.
func signedUpstream(t *testing.T, zones int) *authority.Server {
	t.Helper()
	up := authority.NewServer()
	for i := 0; i < zones; i++ {
		origin := fmt.Sprintf("signed-%d.test", i)
		signer, err := authority.NewSigner(origin, rand.New(rand.NewSource(int64(100+i))))
		if err != nil {
			t.Fatal(err)
		}
		octet := i
		z, err := authority.NewZone(origin, authority.WithSigner(signer), authority.WithSynth(
			func(_ []byte, qtype dnsmsg.Type, dst []dnsmsg.RR) ([]dnsmsg.RR, bool) {
				if qtype != dnsmsg.TypeA {
					return dst, false
				}
				return append(dst,
					dnsmsg.RR{Type: qtype, Class: dnsmsg.ClassIN, TTL: 300, RData: dnsmsg.IPv4(198, 18, byte(octet), 1)},
					dnsmsg.RR{Type: qtype, Class: dnsmsg.ClassIN, TTL: 300, RData: dnsmsg.IPv4(198, 18, byte(octet), 2)},
				), true
			}))
		if err != nil {
			t.Fatal(err)
		}
		if err := up.AddZone(z); err != nil {
			t.Fatal(err)
		}
	}
	return up
}

// TestValidationKeyFetchDuringExchange pins the nested-exchange rule. With
// validation on and the zone key not yet cached, validate issues a DNSKEY
// exchange on the same server while recurse is still working on the signed
// response: the answers, the counters and the above-tap observations must
// be those of the outer response, not of the scratch the key fetch reused.
func TestValidationKeyFetchDuringExchange(t *testing.T) {
	up := signedUpstream(t, 1)
	c, err := NewCluster(up, WithServers(1), WithValidation())
	if err != nil {
		t.Fatal(err)
	}
	var above []Observation
	c.SetTaps(nil, TapFunc(func(ob Observation) { above = append(above, ob) }))

	resp, err := c.Resolve(q("tok1.signed-0.test", t0))
	if err != nil {
		t.Fatal(err)
	}
	a := func(name, ip string) dnsmsg.RR {
		a := netip.MustParseAddr(ip).As4()
		return dnsmsg.RR{Name: name, Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN, TTL: 300, RData: dnsmsg.IPv4(a[0], a[1], a[2], a[3])}
	}
	wantAnswers := []dnsmsg.RR{a("tok1.signed-0.test", "198.18.0.1"), a("tok1.signed-0.test", "198.18.0.2")}
	if resp.RCode != dnsmsg.RCodeNoError || !reflect.DeepEqual(resp.Answers, wantAnswers) {
		t.Errorf("answers = %+v (rcode %v), want %+v", resp.Answers, resp.RCode, wantAnswers)
	}
	// The key the validator fetches, as the authority answers it on the wire.
	query, err := dnsmsg.NewQuery(0, "signed-0.test", dnsmsg.TypeDNSKEY).Encode()
	if err != nil {
		t.Fatal(err)
	}
	reply, err := up.HandleWire(query)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := dnsmsg.Decode(reply)
	if err != nil || len(keys.Answers) != 1 {
		t.Fatalf("DNSKEY reply for the signed zone: %+v, %v", keys, err)
	}
	dnskey := keys.Answers[0]
	ob := func(qname string, rr dnsmsg.RR) Observation {
		return Observation{Time: t0, ClientID: 1, Server: 0, QName: qname, RR: rr}
	}
	wantAbove := []Observation{
		ob("tok1.signed-0.test", wantAnswers[0]),
		ob("tok1.signed-0.test", wantAnswers[1]),
		ob("signed-0.test", dnskey),
	}
	if !reflect.DeepEqual(above, wantAbove) {
		t.Errorf("above tap saw\n %+v\nwant\n %+v", above, wantAbove)
	}
	st := c.Stats()
	if st.UpstreamRTs != 2 || st.Validations != 1 || st.ValidationErrs != 0 || st.CacheMisses != 1 {
		t.Errorf("stats after the first signed miss = %+v, want 2 round trips, 1 clean validation", st)
	}
	// The key is cached now: a second name costs one round trip, and the
	// first answer is served from the cache as it was stored.
	if _, err := c.Resolve(q("tok2.signed-0.test", t0)); err != nil {
		t.Fatal(err)
	}
	hit, err := c.Resolve(q("tok1.signed-0.test", t0.Add(time.Second)))
	if err != nil {
		t.Fatal(err)
	}
	if !hit.FromCache || !reflect.DeepEqual(hit.Answers, wantAnswers) {
		t.Errorf("cached signed answer = %+v, want %+v", hit, wantAnswers)
	}
	st = c.Stats()
	if st.UpstreamRTs != 3 || st.Validations != 2 || st.ValidationErrs != 0 {
		t.Errorf("stats after the second signed miss = %+v, want 3 round trips, 2 clean validations", st)
	}
}

// TestValidationKeyFetchParallelMatchesSequential drives the same hazard
// through the per-server workers (run it under -race): many signed zones,
// every key fetched mid-response by whichever worker gets there first. The
// cluster totals and the set of records seen above must equal the
// sequential run's.
func TestValidationKeyFetchParallelMatchesSequential(t *testing.T) {
	const zones, queries = 12, 3000
	qs := make([]Query, queries)
	for i := range qs {
		qs[i] = Query{
			Time:     t0.Add(time.Duration(i) * time.Millisecond),
			ClientID: uint32(i % 257),
			Name:     fmt.Sprintf("tok%d.signed-%d.test", i%400, i%zones),
			Type:     dnsmsg.TypeA,
		}
	}
	type seen struct {
		qname string
		rr    dnsmsg.RR
		rcode dnsmsg.RCode
	}
	run := func(parallel bool) (Stats, []seen) {
		c, err := NewCluster(signedUpstream(t, zones), WithServers(4), WithValidation())
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var above []seen
		c.SetTaps(nil, TapFunc(func(ob Observation) {
			mu.Lock()
			above = append(above, seen{ob.QName, ob.RR, ob.RCode})
			mu.Unlock()
		}))
		if parallel {
			st := c.StartStream()
			for _, q := range qs {
				st.Submit(q)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		} else {
			for _, q := range qs {
				if _, err := c.Resolve(q); err != nil {
					t.Fatal(err)
				}
			}
		}
		sort.Slice(above, func(i, j int) bool {
			a, b := above[i], above[j]
			if a.qname != b.qname {
				return a.qname < b.qname
			}
			if a.rr.Type != b.rr.Type {
				return a.rr.Type < b.rr.Type
			}
			return a.rr.RData.Format(a.rr.Type) < b.rr.RData.Format(b.rr.Type)
		})
		return c.Stats(), above
	}
	seqStats, seqAbove := run(false)
	parStats, parAbove := run(true)
	if seqStats.Validations == 0 || seqStats.ValidationErrs != 0 {
		t.Fatalf("sequential run validated %d with %d errors", seqStats.Validations, seqStats.ValidationErrs)
	}
	if want := seqStats.CacheMisses + zones; seqStats.UpstreamRTs != want {
		t.Errorf("sequential round trips = %d, want one per miss plus one per zone key = %d", seqStats.UpstreamRTs, want)
	}
	if seqStats != parStats {
		t.Errorf("parallel stats differ from sequential:\n seq %+v\n par %+v", seqStats, parStats)
	}
	if !reflect.DeepEqual(seqAbove, parAbove) {
		t.Errorf("parallel run saw different records above (%d vs %d)", len(parAbove), len(seqAbove))
	}
}
