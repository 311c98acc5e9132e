package resolver

import (
	"testing"
	"time"

	"dnsnoise/internal/authority"
	"dnsnoise/internal/dnsmsg"
)

func TestSOAMinimumParsing(t *testing.T) {
	cases := []struct {
		rdata string
		want  uint32
		ok    bool
	}{
		{"ns1.example.com hostmaster.example.com 2011120100 7200 3600 1209600 300", 300, true},
		{"ns1.example.com hostmaster.example.com 2011120100 7200 3600 1209600 60", 60, true},
		{"ns1.example.com  hostmaster.example.com  1 2 3 4  900", 900, true}, // repeated spaces
		{"ns1.example.com hostmaster.example.com 1 2 3 4", 0, false},         // missing minimum
		{"ns1.example.com hostmaster.example.com 1 2 3 4 abc", 0, false},     // non-numeric
		{"", 0, false},
	}
	for _, tc := range cases {
		got, ok := soaMinimum(tc.rdata)
		if got != tc.want || ok != tc.ok {
			t.Errorf("soaMinimum(%q) = (%d, %v), want (%d, %v)", tc.rdata, got, ok, tc.want, tc.ok)
		}
	}
}

func TestNegativeTTLFromResponse(t *testing.T) {
	soa := func(ttl uint32, minimum string) dnsmsg.RR {
		return dnsmsg.RR{
			Name: "example.com", Type: dnsmsg.TypeSOA, Class: dnsmsg.ClassIN, TTL: ttl,
			RData: dnsmsg.Text("ns1.example.com hostmaster.example.com 2011120100 7200 3600 1209600 " + minimum),
		}
	}
	cases := []struct {
		name string
		resp dnsmsg.Message
		want uint32
	}{
		{"minimum wins when smaller", dnsmsg.Message{Authority: []dnsmsg.RR{soa(600, "120")}}, 120},
		{"soa ttl wins when smaller", dnsmsg.Message{Authority: []dnsmsg.RR{soa(30, "900")}}, 30},
		{"no soa falls back to 300", dnsmsg.Message{}, 300},
		{"malformed soa falls back to 300", dnsmsg.Message{Authority: []dnsmsg.RR{{
			Name: "example.com", Type: dnsmsg.TypeSOA, Class: dnsmsg.ClassIN, TTL: 60, RData: dnsmsg.Text("garbage"),
		}}}, 300},
	}
	for _, tc := range cases {
		if got := negativeTTL(&tc.resp); got != tc.want {
			t.Errorf("%s: negativeTTL = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestNegativeCacheHonorsZoneSOA checks the RFC 2308 behaviour end to end:
// a zone with a 60-second negative TTL must stop shielding the authority
// after 60 seconds, not after the 300-second fallback.
func TestNegativeCacheHonorsZoneSOA(t *testing.T) {
	up := authority.NewServer()
	z, err := authority.NewZone("short.test", authority.WithNegativeTTL(60))
	if err != nil {
		t.Fatal(err)
	}
	if err := z.Add(dnsmsg.RR{Name: "www.short.test", Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN, TTL: 300, RData: dnsmsg.IPv4(192, 0, 2, 7)}); err != nil {
		t.Fatal(err)
	}
	if err := up.AddZone(z); err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(up, WithServers(1), WithNegativeCache(true))
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Time: t0, ClientID: 1, Name: "missing.short.test", Type: dnsmsg.TypeA}

	if r, err := c.Resolve(q); err != nil || r.RCode != dnsmsg.RCodeNXDomain {
		t.Fatalf("first resolve = %+v, %v; want NXDOMAIN", r, err)
	}
	// Within the 60s negative TTL: served from the negative cache.
	q.Time = t0.Add(59 * time.Second)
	if _, err := c.Resolve(q); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.NegCacheHits != 1 || st.UpstreamRTs != 1 {
		t.Fatalf("within TTL: NegCacheHits=%d UpstreamRTs=%d, want 1 and 1", st.NegCacheHits, st.UpstreamRTs)
	}
	// Past 60s (but well inside the old hardcoded 300s): must re-ask.
	q.Time = t0.Add(61 * time.Second)
	if _, err := c.Resolve(q); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.NegCacheHits != 1 || st.UpstreamRTs != 2 {
		t.Fatalf("past TTL: NegCacheHits=%d UpstreamRTs=%d, want 1 and 2", st.NegCacheHits, st.UpstreamRTs)
	}
}
