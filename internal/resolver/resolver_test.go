package resolver

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"dnsnoise/internal/authority"
	"dnsnoise/internal/cache"
	"dnsnoise/internal/dnsmsg"
)

var t0 = time.Date(2011, 12, 1, 0, 0, 0, 0, time.UTC)

// testUpstream builds an authority with a small static zone, a wildcard
// zone, and a CNAME chain into a CDN zone.
func testUpstream(t *testing.T) *authority.Server {
	t.Helper()
	up := authority.NewServer()

	ex, err := authority.NewZone("example.com")
	if err != nil {
		t.Fatal(err)
	}
	add := func(z *authority.Zone, rr dnsmsg.RR) {
		t.Helper()
		if err := z.Add(rr); err != nil {
			t.Fatal(err)
		}
	}
	add(ex, dnsmsg.RR{Name: "www.example.com", Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN, TTL: 300, RData: dnsmsg.IPv4(192, 0, 2, 1)})
	add(ex, dnsmsg.RR{Name: "zero.example.com", Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN, TTL: 0, RData: dnsmsg.IPv4(192, 0, 2, 5)})
	add(ex, dnsmsg.RR{Name: "long.example.com", Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN, TTL: 2 * 86400, RData: dnsmsg.IPv4(192, 0, 2, 6)})
	add(ex, dnsmsg.RR{Name: "cdn.example.com", Type: dnsmsg.TypeCNAME, Class: dnsmsg.ClassIN, TTL: 60, RData: dnsmsg.Text("edge.akamai.net")})
	if err := up.AddZone(ex); err != nil {
		t.Fatal(err)
	}

	ak, err := authority.NewZone("akamai.net")
	if err != nil {
		t.Fatal(err)
	}
	add(ak, dnsmsg.RR{Name: "edge.akamai.net", Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN, TTL: 20, RData: dnsmsg.IPv4(198, 51, 100, 9)})
	if err := up.AddZone(ak); err != nil {
		t.Fatal(err)
	}
	return up
}

func q(name string, at time.Time) Query {
	return Query{Time: at, ClientID: 1, Name: name, Type: dnsmsg.TypeA}
}

func TestResolveMissThenHit(t *testing.T) {
	c, err := NewCluster(testUpstream(t), WithServers(1))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := c.Resolve(q("www.example.com", t0))
	if err != nil {
		t.Fatal(err)
	}
	if r1.FromCache || r1.RCode != dnsmsg.RCodeNoError || len(r1.Answers) != 1 {
		t.Fatalf("first resolve = %+v", r1)
	}
	r2, err := c.Resolve(q("www.example.com", t0.Add(time.Second)))
	if err != nil {
		t.Fatal(err)
	}
	if !r2.FromCache {
		t.Error("second resolve should hit the cache")
	}
	st := c.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 || st.Queries != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestResolveTTLExpiry(t *testing.T) {
	c, err := NewCluster(testUpstream(t), WithServers(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Resolve(q("www.example.com", t0)); err != nil {
		t.Fatal(err)
	}
	// TTL is 300s; at +301s we must re-fetch.
	r, err := c.Resolve(q("www.example.com", t0.Add(301*time.Second)))
	if err != nil {
		t.Fatal(err)
	}
	if r.FromCache {
		t.Error("expired record should not serve from cache")
	}
	if c.Stats().CacheMisses != 2 {
		t.Errorf("CacheMisses = %d, want 2", c.Stats().CacheMisses)
	}
}

func TestZeroTTLNeverHits(t *testing.T) {
	c, err := NewCluster(testUpstream(t), WithServers(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		r, err := c.Resolve(q("zero.example.com", t0.Add(time.Duration(i)*time.Second)))
		if err != nil {
			t.Fatal(err)
		}
		if r.FromCache {
			t.Fatal("TTL=0 record must never be served from cache")
		}
	}
}

func TestCNAMEChainFollowed(t *testing.T) {
	c, err := NewCluster(testUpstream(t), WithServers(1))
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Resolve(q("cdn.example.com", t0))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Answers) != 2 {
		t.Fatalf("answers = %+v, want CNAME + A", r.Answers)
	}
	if r.Answers[0].Type != dnsmsg.TypeCNAME || r.Answers[1].Type != dnsmsg.TypeA {
		t.Errorf("chain = %v, %v", r.Answers[0].Type, r.Answers[1].Type)
	}
	if r.Answers[1].RData != dnsmsg.IPv4(198, 51, 100, 9) {
		t.Errorf("final A = %v", r.Answers[1])
	}
	// A cache hit must replay the full chain.
	r2, err := c.Resolve(q("cdn.example.com", t0.Add(time.Second)))
	if err != nil {
		t.Fatal(err)
	}
	if !r2.FromCache || len(r2.Answers) != 2 {
		t.Errorf("cached chain = %+v", r2)
	}
}

// TestCNAMEChainSurvivesColdHopEviction: a chain's answers are the
// records of every hop, and a hop's records live in its cache slot until the
// next put, which may evict that very slot — at capacity 1, or when every
// entry goes in at the cold end. At any size, with or without that
// demotion, the miss and the following hit must answer what a roomy
// cluster answers.
func TestCNAMEChainSurvivesColdHopEviction(t *testing.T) {
	resolveTwice := func(opts ...Option) [2]Response {
		t.Helper()
		c, err := NewCluster(testUpstream(t), append([]Option{WithServers(1)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		var out [2]Response
		for i := range out {
			r, err := c.Resolve(q("cdn.example.com", t0.Add(time.Duration(i)*time.Second)))
			if err != nil {
				t.Fatal(err)
			}
			r.Answers = append([]dnsmsg.RR(nil), r.Answers...) // a copy outlives the next query
			out[i] = r
		}
		return out
	}
	want := resolveTwice()
	if len(want[0].Answers) != 2 || want[0].FromCache || !want[1].FromCache {
		t.Fatalf("roomy cluster answered %+v", want)
	}
	all := func(string) bool { return true }
	for _, size := range []int{1, 2, 64} {
		for _, demote := range []bool{false, true} {
			opts := []Option{WithCacheSize(size)}
			if demote {
				opts = append(opts, WithDeprioritizer(all))
			}
			if got := resolveTwice(opts...); !reflect.DeepEqual(got, want) {
				t.Errorf("cache size %d, deprioritized %v: miss then hit = %+v, want %+v", size, demote, got, want)
			}
		}
	}
}

func TestCNAMELoopDetected(t *testing.T) {
	up := authority.NewServer()
	z, err := authority.NewZone("loop.test")
	if err != nil {
		t.Fatal(err)
	}
	if err := z.Add(dnsmsg.RR{Name: "a.loop.test", Type: dnsmsg.TypeCNAME, Class: dnsmsg.ClassIN, TTL: 60, RData: dnsmsg.Text("b.loop.test")}); err != nil {
		t.Fatal(err)
	}
	if err := z.Add(dnsmsg.RR{Name: "b.loop.test", Type: dnsmsg.TypeCNAME, Class: dnsmsg.ClassIN, TTL: 60, RData: dnsmsg.Text("a.loop.test")}); err != nil {
		t.Fatal(err)
	}
	if err := up.AddZone(z); err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(up, WithServers(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Resolve(q("a.loop.test", t0)); !errors.Is(err, ErrChainLoop) {
		t.Errorf("loop resolve = %v, want ErrChainLoop", err)
	}
}

func TestNXDomainWithoutNegativeCache(t *testing.T) {
	c, err := NewCluster(testUpstream(t), WithServers(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		r, err := c.Resolve(q("missing.example.com", t0.Add(time.Duration(i)*time.Second)))
		if err != nil {
			t.Fatal(err)
		}
		if r.RCode != dnsmsg.RCodeNXDomain || r.FromCache {
			t.Fatalf("resolve %d = %+v", i, r)
		}
	}
	st := c.Stats()
	// Without negative caching, every NXDOMAIN goes upstream (the paper's
	// observed behaviour: NXDOMAIN is 40% of above traffic).
	if st.UpstreamRTs != 3 {
		t.Errorf("UpstreamRTs = %d, want 3", st.UpstreamRTs)
	}
	if st.NXDomains != 3 {
		t.Errorf("NXDomains = %d, want 3", st.NXDomains)
	}
}

func TestTapsSeeBothSides(t *testing.T) {
	c, err := NewCluster(testUpstream(t), WithServers(1))
	if err != nil {
		t.Fatal(err)
	}
	var below, above []Observation
	c.SetTaps(
		TapFunc(func(ob Observation) { below = append(below, ob) }),
		TapFunc(func(ob Observation) { above = append(above, ob) }),
	)
	if _, err := c.Resolve(q("www.example.com", t0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Resolve(q("www.example.com", t0.Add(time.Second))); err != nil {
		t.Fatal(err)
	}
	// Two below observations (one per answered query), one above (the miss).
	if len(below) != 2 {
		t.Errorf("below = %d observations, want 2", len(below))
	}
	if len(above) != 1 {
		t.Errorf("above = %d observations, want 1", len(above))
	}
	if below[0].RR.Name != "www.example.com" || below[0].RCode != dnsmsg.RCodeNoError {
		t.Errorf("below[0] = %+v", below[0])
	}
}

func TestTapsSeeNXDomain(t *testing.T) {
	c, err := NewCluster(testUpstream(t), WithServers(1))
	if err != nil {
		t.Fatal(err)
	}
	var below, above []Observation
	c.SetTaps(
		TapFunc(func(ob Observation) { below = append(below, ob) }),
		TapFunc(func(ob Observation) { above = append(above, ob) }),
	)
	if _, err := c.Resolve(q("missing.example.com", t0)); err != nil {
		t.Fatal(err)
	}
	if len(below) != 1 || below[0].RCode != dnsmsg.RCodeNXDomain || below[0].RR.Name != "" {
		t.Errorf("below = %+v", below)
	}
	if len(above) != 1 || above[0].RCode != dnsmsg.RCodeNXDomain {
		t.Errorf("above = %+v", above)
	}
}

func TestHashAffinityIsStable(t *testing.T) {
	c, err := NewCluster(testUpstream(t), WithServers(4))
	if err != nil {
		t.Fatal(err)
	}
	for client := uint32(0); client < 50; client++ {
		first := c.pickServer(client)
		for i := 0; i < 5; i++ {
			if got := c.pickServer(client); got != first {
				t.Fatalf("client %d moved from server %d to %d", client, first, got)
			}
		}
	}
}

func TestPerServerCachesAreIndependent(t *testing.T) {
	c, err := NewCluster(testUpstream(t), WithServers(2))
	if err != nil {
		t.Fatal(err)
	}
	// Find two clients pinned to different servers.
	var c0, c1 uint32
	found := false
	for a := uint32(0); a < 100 && !found; a++ {
		for b := a + 1; b < 100; b++ {
			if c.pickServer(a) != c.pickServer(b) {
				c0, c1, found = a, b, true
				break
			}
		}
	}
	if !found {
		t.Fatal("could not find clients on different servers")
	}
	if _, err := c.Resolve(Query{Time: t0, ClientID: c0, Name: "www.example.com", Type: dnsmsg.TypeA}); err != nil {
		t.Fatal(err)
	}
	r, err := c.Resolve(Query{Time: t0.Add(time.Second), ClientID: c1, Name: "www.example.com", Type: dnsmsg.TypeA})
	if err != nil {
		t.Fatal(err)
	}
	if r.FromCache {
		t.Error("a different server's cache must not serve the hit")
	}
}

func TestValidationCountsSignatures(t *testing.T) {
	up := authority.NewServer()
	signer, err := authority.NewSigner("signed.test", rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	z, err := authority.NewZone("signed.test", authority.WithSigner(signer))
	if err != nil {
		t.Fatal(err)
	}
	if err := z.Add(dnsmsg.RR{Name: "www.signed.test", Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN, TTL: 300, RData: dnsmsg.IPv4(192, 0, 2, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := up.AddZone(z); err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(up, WithServers(1), WithValidation())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Resolve(q("www.signed.test", t0)); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Validations != 1 {
		t.Errorf("Validations = %d, want 1", st.Validations)
	}
	if st.ValidationErrs != 0 {
		t.Errorf("ValidationErrs = %d, want 0", st.ValidationErrs)
	}
	// The RRSIG must not leak into the client answer section.
	r, err := c.Resolve(q("www.signed.test", t0.Add(time.Second)))
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range r.Answers {
		if rr.Type == dnsmsg.TypeRRSIG {
			t.Error("RRSIG leaked into client answers")
		}
	}
}

func TestNoUpstream(t *testing.T) {
	if _, err := NewCluster(nil); !errors.Is(err, ErrNoUpstream) {
		t.Errorf("NewCluster(nil) = %v, want ErrNoUpstream", err)
	}
}

func TestCategoryFlowsToCache(t *testing.T) {
	up := authority.NewServer()
	z, err := authority.NewZone("d.test", authority.WithSynth(func(_ []byte, qtype dnsmsg.Type, dst []dnsmsg.RR) ([]dnsmsg.RR, bool) {
		return append(dst, dnsmsg.RR{Type: qtype, Class: dnsmsg.ClassIN, TTL: 300, RData: dnsmsg.IPv4(127, 0, 0, 1)}), true
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := up.AddZone(z); err != nil {
		t.Fatal(err)
	}
	// Cache of size 2: two disposable inserts then one more evicts a live
	// disposable entry, attributed disposable->disposable.
	c, err := NewCluster(up, WithServers(1), WithCacheSize(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		qq := Query{Time: t0, ClientID: 1, Name: fmt.Sprintf("tok%d.d.test", i), Type: dnsmsg.TypeA, Category: cache.CategoryDisposable}
		if _, err := c.Resolve(qq); err != nil {
			t.Fatal(err)
		}
	}
	cs := c.CacheStats()[0]
	if cs.PrematureEvictions[cache.CategoryDisposable][cache.CategoryDisposable] != 1 {
		t.Errorf("premature evictions = %+v", cs.PrematureEvictions)
	}
}

func TestSignerZoneParsing(t *testing.T) {
	rdata := "A 15 3 300 example.com sig=deadbeef keytag=1"
	if got := signerZone(rdata); got != "example.com" {
		t.Errorf("signerZone = %q, want example.com", got)
	}
	if got := signerZone("too short"); got != "" {
		t.Errorf("signerZone(short) = %q, want \"\"", got)
	}
}

func TestWithMaxTTLCapsCacheLifetime(t *testing.T) {
	// long.example.com has a two-day TTL; the cache holds it for 24 h.
	c, err := NewCluster(testUpstream(t), WithServers(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Resolve(q("long.example.com", t0)); err != nil {
		t.Fatal(err)
	}
	r, err := c.Resolve(q("long.example.com", t0.Add(24*time.Hour-time.Second)))
	if err != nil {
		t.Fatal(err)
	}
	if !r.FromCache {
		t.Error("a two-day record should be served from cache just before 24 h")
	}
	r, err = c.Resolve(q("long.example.com", t0.Add(24*time.Hour+time.Second)))
	if err != nil {
		t.Fatal(err)
	}
	if r.FromCache {
		t.Error("cached lifetime not capped at 24 h")
	}
	if c.NumServers() != 1 {
		t.Errorf("NumServers = %d", c.NumServers())
	}
}

func TestDeprioritizedEntriesEvictFirst(t *testing.T) {
	up := authority.NewServer()
	z, err := authority.NewZone("d.test", authority.WithSynth(func(_ []byte, qtype dnsmsg.Type, dst []dnsmsg.RR) ([]dnsmsg.RR, bool) {
		return append(dst, dnsmsg.RR{Type: qtype, Class: dnsmsg.ClassIN, TTL: 3600, RData: dnsmsg.IPv4(127, 0, 0, 1)}), true
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := up.AddZone(z); err != nil {
		t.Fatal(err)
	}
	dep := func(name string) bool { return name != "keep.d.test" }
	c, err := NewCluster(up, WithServers(1), WithCacheSize(2), WithDeprioritizer(dep))
	if err != nil {
		t.Fatal(err)
	}
	// keep.d.test is protected; two deprioritized names churn through the
	// remaining slot without ever evicting it.
	if _, err := c.Resolve(q("keep.d.test", t0)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("tok%d.d.test", i)
		if _, err := c.Resolve(Query{Time: t0, ClientID: 1, Name: name, Type: dnsmsg.TypeA}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := c.Resolve(q("keep.d.test", t0.Add(time.Second)))
	if err != nil {
		t.Fatal(err)
	}
	if !r.FromCache {
		t.Error("protected entry was evicted by deprioritized churn")
	}
}
