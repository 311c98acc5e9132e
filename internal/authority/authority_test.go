package authority

import (
	"bytes"
	"errors"
	"math/rand"
	"net/netip"
	"testing"

	"dnsnoise/internal/dnsmsg"
)

func mustZone(t *testing.T, origin string, opts ...ZoneOption) *Zone {
	t.Helper()
	z, err := NewZone(origin, opts...)
	if err != nil {
		t.Fatalf("NewZone(%q): %v", origin, err)
	}
	return z
}

func mustAdd(t *testing.T, z *Zone, rr dnsmsg.RR) {
	t.Helper()
	if err := z.Add(rr); err != nil {
		t.Fatalf("Add(%v): %v", rr, err)
	}
}

func aRR(name, ip string) dnsmsg.RR {
	a := netip.MustParseAddr(ip).As4()
	return dnsmsg.RR{Name: name, Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN, TTL: 300, RData: dnsmsg.IPv4(a[0], a[1], a[2], a[3])}
}

// serve registers zones on a new server.
func serve(t *testing.T, zones ...*Zone) *Server {
	t.Helper()
	s := NewServer()
	for _, z := range zones {
		if err := s.AddZone(z); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// ask sends (name, qtype) to s as a wire query and decodes the reply
// AppendHandleWire gives: the bytes the socket sends.
func ask(t *testing.T, s *Server, name string, qtype dnsmsg.Type) *dnsmsg.Message {
	t.Helper()
	query, err := dnsmsg.NewQuery(0, name, qtype).Encode()
	if err != nil {
		t.Fatal(err)
	}
	wire, err := s.AppendHandleWire(nil, query)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := dnsmsg.Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// answers asks a server holding only z for (name, qtype) and returns the
// reply's answer section.
func answers(t *testing.T, z *Zone, name string, qtype dnsmsg.Type) []dnsmsg.RR {
	t.Helper()
	return ask(t, serve(t, z), name, qtype).Answers
}

func TestZoneExactLookup(t *testing.T) {
	z := mustZone(t, "example.com")
	mustAdd(t, z, aRR("www.example.com", "192.0.2.1"))
	got := ask(t, serve(t, z), "WWW.Example.Com", dnsmsg.TypeA)
	if got.Header.RCode != dnsmsg.RCodeNoError || len(got.Answers) != 1 || got.Answers[0].RData != dnsmsg.IPv4(192, 0, 2, 1) {
		t.Errorf("reply = %+v", got)
	}
}

func TestZoneNXDomain(t *testing.T) {
	z := mustZone(t, "example.com")
	mustAdd(t, z, aRR("www.example.com", "192.0.2.1"))
	s := serve(t, z)
	for _, name := range []string{"missing.example.com", "www.other.com"} {
		if got := ask(t, s, name, dnsmsg.TypeA); got.Header.RCode != dnsmsg.RCodeNXDomain {
			t.Errorf("%s: RCode = %v, want NXDOMAIN", name, got.Header.RCode)
		}
	}
}

func TestZoneNoData(t *testing.T) {
	z := mustZone(t, "example.com")
	mustAdd(t, z, aRR("www.example.com", "192.0.2.1"))
	got := ask(t, serve(t, z), "www.example.com", dnsmsg.TypeAAAA)
	if got.Header.RCode != dnsmsg.RCodeNoError || len(got.Answers) != 0 {
		t.Errorf("NODATA reply = %+v, want NOERROR with no answer", got)
	}
}

func TestZoneCNAMEAnswersOtherTypes(t *testing.T) {
	z := mustZone(t, "example.com")
	mustAdd(t, z, dnsmsg.RR{Name: "www.example.com", Type: dnsmsg.TypeCNAME, Class: dnsmsg.ClassIN, TTL: 60, RData: dnsmsg.Text("edge.cdn.example.com")})
	got := ask(t, serve(t, z), "www.example.com", dnsmsg.TypeA)
	if len(got.Answers) != 1 || got.Answers[0].Type != dnsmsg.TypeCNAME {
		t.Errorf("A query over CNAME owner = %v, want the CNAME", got.Answers)
	}
}

func TestZoneWildcard(t *testing.T) {
	z := mustZone(t, "fbcdn.net")
	mustAdd(t, z, dnsmsg.RR{Name: "*.dns.xx.fbcdn.net", Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN, TTL: 30, RData: dnsmsg.IPv4(192, 0, 2, 77)})
	s := serve(t, z)
	got := ask(t, s, "1022vr5.dns.xx.fbcdn.net", dnsmsg.TypeA).Answers
	if len(got) != 1 || got[0].Name != "1022vr5.dns.xx.fbcdn.net" || got[0].RData != dnsmsg.IPv4(192, 0, 2, 77) {
		t.Errorf("wildcard answer = %v", got)
	}
	// Wildcard only matches direct and deeper children of its parent, not
	// sibling branches.
	if got := ask(t, s, "a.other.xx.fbcdn.net", dnsmsg.TypeA); got.Header.RCode != dnsmsg.RCodeNXDomain {
		t.Errorf("sibling branch = %v, want NXDOMAIN", got.Header.RCode)
	}
}

func TestZoneWildcardDeepMatch(t *testing.T) {
	z := mustZone(t, "example.com")
	mustAdd(t, z, dnsmsg.RR{Name: "*.example.com", Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN, TTL: 30, RData: dnsmsg.IPv4(192, 0, 2, 9)})
	got := ask(t, serve(t, z), "a.b.c.example.com", dnsmsg.TypeA).Answers
	if len(got) != 1 || got[0].Name != "a.b.c.example.com" {
		t.Errorf("deep wildcard answer = %v", got)
	}
}

func TestZoneExactBeatsWildcard(t *testing.T) {
	z := mustZone(t, "example.com")
	mustAdd(t, z, dnsmsg.RR{Name: "*.example.com", Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN, TTL: 30, RData: dnsmsg.IPv4(192, 0, 2, 9)})
	mustAdd(t, z, aRR("www.example.com", "192.0.2.1"))
	got := ask(t, serve(t, z), "www.example.com", dnsmsg.TypeA).Answers
	if len(got) != 1 || got[0].RData != dnsmsg.IPv4(192, 0, 2, 1) {
		t.Errorf("exact record should beat wildcard, got %v", got)
	}
}

func TestZoneSynth(t *testing.T) {
	synth := func(name []byte, qtype dnsmsg.Type, dst []dnsmsg.RR) ([]dnsmsg.RR, bool) {
		if qtype != dnsmsg.TypeA || !bytes.HasSuffix(name, []byte(".avqs.mcafee.com")) {
			return dst, false
		}
		return append(dst, dnsmsg.RR{Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN, TTL: 60, RData: dnsmsg.IPv4(127, 0, 0, 1)}), true
	}
	s := serve(t, mustZone(t, "mcafee.com", WithSynth(synth)))
	got := ask(t, s, "0.0.0.0.1.0.0.4e.13cfus2drmdq.avqs.mcafee.com", dnsmsg.TypeA).Answers
	if len(got) != 1 || got[0].Name != "0.0.0.0.1.0.0.4e.13cfus2drmdq.avqs.mcafee.com" || got[0].RData != dnsmsg.IPv4(127, 0, 0, 1) {
		t.Errorf("synth answer = %v", got)
	}
	if got := ask(t, s, "www.mcafee.com", dnsmsg.TypeA); got.Header.RCode != dnsmsg.RCodeNXDomain {
		t.Errorf("non-synth name = %v, want fall-through to NXDOMAIN", got.Header.RCode)
	}
}

func TestZoneAddValidation(t *testing.T) {
	z := mustZone(t, "example.com")
	if err := z.Add(aRR("www.other.com", "192.0.2.1")); !errors.Is(err, ErrBadRecord) {
		t.Errorf("Add outside zone = %v, want ErrBadRecord", err)
	}
	if err := z.Add(dnsmsg.RR{Name: "*.other.com", Type: dnsmsg.TypeA, RData: dnsmsg.IPv4(192, 0, 2, 1)}); !errors.Is(err, ErrBadRecord) {
		t.Errorf("Add wildcard outside zone = %v, want ErrBadRecord", err)
	}
	if _, err := NewZone(""); !errors.Is(err, ErrZoneOrigin) {
		t.Errorf("NewZone(\"\") = %v, want ErrZoneOrigin", err)
	}
}

func TestServerRouting(t *testing.T) {
	z1 := mustZone(t, "example.com")
	mustAdd(t, z1, aRR("www.example.com", "192.0.2.1"))
	z2 := mustZone(t, "deep.example.com")
	mustAdd(t, z2, aRR("host.deep.example.com", "192.0.2.2"))
	s := serve(t, z1, z2)
	// Longest-suffix zone must win.
	resp := ask(t, s, "host.deep.example.com", dnsmsg.TypeA)
	if resp.Header.RCode != dnsmsg.RCodeNoError || len(resp.Answers) != 1 || resp.Answers[0].RData != dnsmsg.IPv4(192, 0, 2, 2) {
		t.Errorf("deep zone response = %+v", resp)
	}
	resp = ask(t, s, "www.example.com", dnsmsg.TypeA)
	if len(resp.Answers) != 1 || resp.Answers[0].RData != dnsmsg.IPv4(192, 0, 2, 1) {
		t.Errorf("parent zone response = %+v", resp)
	}
}

func TestServerDuplicateZone(t *testing.T) {
	s := NewServer()
	if err := s.AddZone(mustZone(t, "example.com")); err != nil {
		t.Fatal(err)
	}
	if err := s.AddZone(mustZone(t, "example.com")); !errors.Is(err, ErrDupZone) {
		t.Errorf("AddZone dup = %v, want ErrDupZone", err)
	}
}

func TestServerNXDomainCarriesSOA(t *testing.T) {
	s := serve(t, mustZone(t, "example.com"))
	resp := ask(t, s, "nope.example.com", dnsmsg.TypeA)
	if resp.Header.RCode != dnsmsg.RCodeNXDomain {
		t.Fatalf("RCode = %v", resp.Header.RCode)
	}
	if len(resp.Authority) != 1 || resp.Authority[0].Type != dnsmsg.TypeSOA {
		t.Fatalf("authority = %+v", resp.Authority)
	}
	if resp.Authority[0].TTL != 300 {
		t.Errorf("negative TTL = %d, want 300", resp.Authority[0].TTL)
	}
	if s.Stats().NXDomains != 1 {
		t.Errorf("NXDomains = %d, want 1", s.Stats().NXDomains)
	}
}

func TestServerUnmatchedQuery(t *testing.T) {
	s := NewServer()
	resp := ask(t, s, "www.unknown.test", dnsmsg.TypeA)
	if resp.Header.RCode != dnsmsg.RCodeNXDomain {
		t.Errorf("RCode = %v, want NXDOMAIN", resp.Header.RCode)
	}
	if s.Stats().UnmatchedQueries != 1 {
		t.Errorf("UnmatchedQueries = %d, want 1", s.Stats().UnmatchedQueries)
	}
}

func TestServerWireRoundTrip(t *testing.T) {
	s := NewServer()
	z := mustZone(t, "example.com")
	mustAdd(t, z, aRR("www.example.com", "192.0.2.1"))
	if err := s.AddZone(z); err != nil {
		t.Fatal(err)
	}
	q := dnsmsg.NewQuery(0xABCD, "www.example.com", dnsmsg.TypeA)
	wire, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	respWire, err := s.HandleWire(wire)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := dnsmsg.Decode(respWire)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.ID != 0xABCD || len(resp.Answers) != 1 {
		t.Errorf("wire response = %+v", resp)
	}
}

func TestServerAppendHandleWireMatchesHandleWire(t *testing.T) {
	s := NewServer()
	z := mustZone(t, "example.com")
	mustAdd(t, z, aRR("www.example.com", "192.0.2.1"))
	if err := s.AddZone(z); err != nil {
		t.Fatal(err)
	}
	queries := [][]byte{
		{1, 2, 3}, // malformed: FORMERR on both paths
	}
	for _, name := range []string{"www.example.com", "WWW.Example.COM", "missing.example.com"} {
		wire, err := dnsmsg.NewQuery(0x5151, name, dnsmsg.TypeA).Encode()
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, wire)
	}
	for i, q := range queries {
		want, err := s.HandleWire(q)
		if err != nil {
			t.Fatalf("query %d: HandleWire: %v", i, err)
		}
		// An OPT record changes no byte of the answer.
		if len(q) > 12 {
			if got, err := s.HandleWire(withCookieOPT(q)); err != nil || !bytes.Equal(got, want) {
				t.Errorf("query %d: the answer with an OPT differs from the one without (%v)", i, err)
			}
		}
		got, err := s.AppendHandleWire(nil, q)
		if err != nil {
			t.Fatalf("query %d: AppendHandleWire(nil): %v", i, err)
		}
		if string(got) != string(want) {
			t.Errorf("query %d: AppendHandleWire(nil) differs from HandleWire", i)
		}
		// Appending into a non-empty buffer preserves the prefix and
		// produces the same message bytes after it.
		prefix := []byte("prefix")
		buf := append([]byte(nil), prefix...)
		appended, err := s.AppendHandleWire(buf, q)
		if err != nil {
			t.Fatalf("query %d: AppendHandleWire(prefix): %v", i, err)
		}
		if string(appended[:len(prefix)]) != string(prefix) {
			t.Errorf("query %d: prefix clobbered", i)
		}
		if string(appended[len(prefix):]) != string(want) {
			t.Errorf("query %d: appended message differs from HandleWire", i)
		}
	}
}

func TestServerWireMalformed(t *testing.T) {
	s := NewServer()
	respWire, err := s.HandleWire([]byte{1, 2, 3})
	if err != nil {
		t.Fatalf("HandleWire should answer FORMERR, got err %v", err)
	}
	resp, err := dnsmsg.Decode(respWire)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnsmsg.RCodeFormErr || resp.Header.ID != 0 {
		t.Errorf("runt answered %v under id %#x, want FORMERR under 0", resp.Header.RCode, resp.Header.ID)
	}

	// A readable header promising five questions it does not carry: the
	// query cannot be decoded, but its id can, and the FORMERR echoes it.
	respWire, err = s.HandleWire([]byte{0xBE, 0xEF, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if resp, err = dnsmsg.Decode(respWire); err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnsmsg.RCodeFormErr || resp.Header.ID != 0xBEEF {
		t.Errorf("bad header answered %v under id %#x, want FORMERR under 0xbeef", resp.Header.RCode, resp.Header.ID)
	}
}

func TestSignerSignVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	signer, err := NewSigner("example.com", rng)
	if err != nil {
		t.Fatal(err)
	}
	rrset := []dnsmsg.RR{aRR("www.example.com", "192.0.2.1")}
	rrsig, err := signer.signAs("www.example.com", rrset)
	if err != nil {
		t.Fatal(err)
	}
	if rrsig.Type != dnsmsg.TypeRRSIG || rrsig.Name != "www.example.com" {
		t.Errorf("rrsig = %+v", rrsig)
	}
	pub, err := PublicKeyFromDNSKEY(signer.DNSKEY())
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(pub, rrsig, rrset); err != nil {
		t.Errorf("Verify: %v", err)
	}
	// Tampering must fail.
	bad := []dnsmsg.RR{aRR("www.example.com", "192.0.2.99")}
	if err := Verify(pub, rrsig, bad); err == nil {
		t.Error("Verify of tampered rrset should fail")
	}
}

func TestSignerRejectsMixedRRset(t *testing.T) {
	signer, err := NewSigner("example.com", rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	txt := dnsmsg.RR{Name: "a.example.com", Type: dnsmsg.TypeTXT, Class: dnsmsg.ClassIN, TTL: 300, RData: dnsmsg.Text("x")}
	mixed := []dnsmsg.RR{aRR("a.example.com", "192.0.2.1"), txt}
	if _, err := signer.signAs("a.example.com", mixed); err == nil {
		t.Error("signAs(mixed types) should fail")
	}
}

func TestSignedZoneAttachesRRSIG(t *testing.T) {
	signer, err := NewSigner("example.com", rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	z := mustZone(t, "example.com", WithSigner(signer))
	mustAdd(t, z, aRR("www.example.com", "192.0.2.1"))
	s := serve(t, z)
	resp := ask(t, s, "www.example.com", dnsmsg.TypeA)
	if len(resp.Answers) != 2 {
		t.Fatalf("answers = %d, want A + RRSIG", len(resp.Answers))
	}
	if resp.Answers[1].Type != dnsmsg.TypeRRSIG {
		t.Errorf("second answer = %v, want RRSIG", resp.Answers[1].Type)
	}
	if s.Stats().Signatures != 1 {
		t.Errorf("Signatures = %d, want 1", s.Stats().Signatures)
	}
	// The resolver-side validation path must succeed end to end, with the
	// key fetched over the wire as a validating resolver fetches it.
	keys := ask(t, s, "example.com", dnsmsg.TypeDNSKEY).Answers
	if len(keys) != 1 || keys[0].Type != dnsmsg.TypeDNSKEY {
		t.Fatalf("DNSKEY reply for the signed zone = %v", keys)
	}
	pub, err := PublicKeyFromDNSKEY(keys[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(pub, resp.Answers[1], resp.Answers[:1]); err != nil {
		t.Errorf("end-to-end Verify: %v", err)
	}
}

func TestPublicKeyFromDNSKEYErrors(t *testing.T) {
	if _, err := PublicKeyFromDNSKEY(aRR("x.com", "192.0.2.1")); err == nil {
		t.Error("non-DNSKEY record should fail")
	}
	bad := dnsmsg.RR{Name: "x.com", Type: dnsmsg.TypeDNSKEY, RData: dnsmsg.Text("257 3 8 abcd")}
	if _, err := PublicKeyFromDNSKEY(bad); err == nil {
		t.Error("wrong algorithm should fail")
	}
	bad.RData = dnsmsg.Text("257 3 15 zz")
	if _, err := PublicKeyFromDNSKEY(bad); err == nil {
		t.Error("bad hex should fail")
	}
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// withCookieOPT is a query as dig sends it by default: with an EDNS0 OPT
// record advertising 1232 bytes and carrying an 8-byte client COOKIE.
func withCookieOPT(query []byte) []byte {
	query = bytes.Clone(query)
	query[11]++ // ARCOUNT
	return append(query, 0, 0, 41, 0x04, 0xd0, 0, 0, 0, 0, 0, 12, 0, 10, 0, 8, 1, 2, 3, 4, 5, 6, 7, 8)
}

// TestAppendHandleWireZeroAllocBudget guards the miss path's authority half:
// answering a query, plain or as dig sends it, into a warmed dst builds no
// query Message, no response Message and no response buffer, and spells no
// name: the question is read into pooled scratch and looked up as bytes, a
// synthesizer appends into the same scratch, and records the question owns —
// synthesized or matched by a wildcard — go out under the question's own
// bytes. An unsigned answer of any kind allocates nothing.
func TestAppendHandleWireZeroAllocBudget(t *testing.T) {
	s := NewServer()
	z := mustZone(t, "example.com")
	mustAdd(t, z, aRR("www.example.com", "192.0.2.1"))
	mustAdd(t, z, dnsmsg.RR{Name: "alias.example.com", Type: dnsmsg.TypeCNAME, Class: dnsmsg.ClassIN, TTL: 60, RData: dnsmsg.Text("www.example.com")})
	mustAdd(t, z, dnsmsg.RR{Name: "*.shard.example.com", Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN, TTL: 30, RData: dnsmsg.IPv4(192, 0, 2, 77)})
	if err := s.AddZone(z); err != nil {
		t.Fatal(err)
	}
	synth := mustZone(t, "synth.test", WithSynth(func(name []byte, qtype dnsmsg.Type, dst []dnsmsg.RR) ([]dnsmsg.RR, bool) {
		for i := range int(name[0] - '0') {
			dst = append(dst, dnsmsg.RR{Type: qtype, Class: dnsmsg.ClassIN, TTL: 1, RData: dnsmsg.IPv4(198, 18, 0, byte(i))})
		}
		return dst, true
	}))
	if err := s.AddZone(synth); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, want string }{
		{"www.example.com", "www.example.com 300 IN A 192.0.2.1"},
		{"Alias.Example.com", "alias.example.com 60 IN CNAME www.example.com"},
		{"e17.shard.example.com", "e17.shard.example.com 30 IN A 192.0.2.77"},
		// Past 32 bytes a []byte-to-string conversion that is not a map
		// index or a comparison would need the heap.
		{"node-0042.rack-17.shard.example.com", "node-0042.rack-17.shard.example.com 30 IN A 192.0.2.77"},
		{"nope.example.com", ""}, // NXDOMAIN + SOA
		{"3.tok.synth.test", "3.tok.synth.test 1 IN A 198.18.0.2"},
	} {
		query, err := dnsmsg.NewQuery(0x77, tc.name, dnsmsg.TypeA).Encode()
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.AppendHandleWire(nil, query)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := dnsmsg.Decode(want)
		if err != nil {
			t.Fatal(err)
		}
		if last := len(resp.Answers) - 1; tc.want != "" && (last < 0 || resp.Answers[last].String() != tc.want) {
			t.Errorf("AppendHandleWire(%s) answers %v, want the last to be %q", tc.name, resp.Answers, tc.want)
		}
		for _, q := range []struct {
			shape string
			wire  []byte
		}{{"plain", query}, {"dig", withCookieOPT(query)}} {
			dst := make([]byte, 0, 512)
			allocs := testing.AllocsPerRun(200, func() {
				out, err := s.AppendHandleWire(dst[:0], q.wire)
				if err != nil || !bytes.Equal(out, want) {
					t.Fatalf("AppendHandleWire(%s, %s) = %d bytes, %v; want the plain query's %d", q.shape, tc.name, len(out), err, len(want))
				}
			})
			if allocs != 0 && !raceEnabled {
				t.Errorf("AppendHandleWire(%s, %s) allocated %.1f times per op, want 0", q.shape, tc.name, allocs)
			}
		}
	}
}
