package dnsmsg

import (
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current encoder")

// goldenCase is one message of the wire-compatibility corpus. The bytes
// under testdata/golden were captured from the codec as it stood before the
// scratch-reusing rewrite (PR 14's parent); the encoder must keep producing
// exactly them, and the decoder must keep reading them back to msg.
type goldenCase struct {
	name string
	msg  *Message
}

func goldenCorpus() []goldenCase {
	response := func(name string, qtype Type, rcode RCode, aa bool) *Message {
		m := NewResponse(NewQuery(0x2b1d, name, qtype), rcode)
		m.Header.Authoritative = aa
		return m
	}
	in := func(name string, typ Type, ttl uint32, rdata string) RR {
		d, err := ParseRData(typ, rdata)
		if err != nil {
			panic(err) // the corpus is spelled below
		}
		return RR{Name: name, Type: typ, Class: ClassIN, TTL: ttl, RData: d}
	}
	soa := in("example.com", TypeSOA, 300,
		"ns1.example.com hostmaster.example.com 2011120100 7200 3600 1209600 300")
	sig := strings.Repeat("0123456789abcdef", 8)

	var cases []goldenCase
	add := func(name string, m *Message) { cases = append(cases, goldenCase{name, m}) }

	add("query", NewQuery(0xbeef, "www.example.com", TypeA))

	m := response("www.example.com", TypeA, RCodeNoError, true)
	m.Answers = []RR{in("www.example.com", TypeA, 300, "192.0.2.1")}
	add("a", m)

	m = response("www.example.com", TypeAAAA, RCodeNoError, true)
	m.Answers = []RR{in("www.example.com", TypeAAAA, 60, "2001:db8:0:0:0:0:ff00:42")}
	add("aaaa", m)

	m = response("p2.a22a43lt5rwfg.191742.i1.ds.ipv6-exp.l.google.com", TypeA, RCodeNoError, false)
	m.Answers = []RR{
		in("p2.a22a43lt5rwfg.191742.i1.ds.ipv6-exp.l.google.com", TypeCNAME, 300, "edge.l.google.com"),
		in("edge.l.google.com", TypeCNAME, 120, "pool7.l.google.com"),
		in("pool7.l.google.com", TypeA, 30, "198.18.7.9"),
		in("pool7.l.google.com", TypeA, 30, "198.18.7.10"),
	}
	add("cname-chain", m)

	m = response("0.0.0.0.1.0.0.4e.13cfus2drmdq.avqs.mcafee.com", TypeA, RCodeNoError, true)
	m.Answers = []RR{
		in("0.0.0.0.1.0.0.4e.13cfus2drmdq.avqs.mcafee.com", TypeA, 1, "127.0.3.17"),
		in("0.0.0.0.1.0.0.4e.13cfus2drmdq.avqs.mcafee.com", TypeA, 1, "127.0.3.18"),
		in("0.0.0.0.1.0.0.4e.13cfus2drmdq.avqs.mcafee.com", TypeA, 1, "127.0.255.0"),
	}
	add("synth-multi", m)

	m = response("nope.deep.example.com", TypeA, RCodeNXDomain, true)
	m.Authority = []RR{soa}
	add("nxdomain-soa", m)

	m = response("www.example.com", TypeTXT, RCodeNoError, true)
	m.Authority = []RR{soa}
	add("nodata", m)

	m = response("unmatched.test", TypeA, RCodeNXDomain, false)
	add("nxdomain-bare", m)

	m = response("tok.signed.example.com", TypeA, RCodeNoError, true)
	m.Answers = []RR{
		in("tok.signed.example.com", TypeA, 300, "198.19.4.200"),
		in("tok.signed.example.com", TypeRRSIG, 300,
			"A 15 4 300 signed.example.com sig="+sig+" keytag=40411"),
	}
	add("signed", m)

	// RRSIG rdata is carried as character strings; past 255 octets it must
	// split into two.
	m = response("tok.signed.example.com", TypeAAAA, RCodeNoError, true)
	m.Answers = []RR{
		in("tok.signed.example.com", TypeAAAA, 300, "2001:db8:0:0:0:0:1:2"),
		in("tok.signed.example.com", TypeRRSIG, 300,
			"AAAA 15 4 300 signed.example.com sig="+sig+sig+" keytag=40411"),
	}
	add("signed-long", m)

	m = response("signed.example.com", TypeDNSKEY, RCodeNoError, true)
	m.Answers = []RR{in("signed.example.com", TypeDNSKEY, 3600, "257 3 15 "+sig[:64])}
	add("dnskey", m)

	// 253 octets: three 63-octet labels and one of 61.
	long := strings.Repeat("a", 63) + "." + strings.Repeat("b", 63) + "." +
		strings.Repeat("c", 63) + "." + strings.Repeat("d", 61)
	m = response(long, TypeA, RCodeNoError, true)
	m.Answers = []RR{in(long, TypeA, 5, "10.0.0.1")}
	add("name-253", m)

	m = response("host.example.com", TypeA, RCodeNoError, true)
	m.Answers = []RR{
		in("host.example.com", TypeCNAME, 60, "host.cdn.example.net"),
		in("host.cdn.example.net", TypeA, 60, "203.0.113.9"),
	}
	m.Authority = []RR{
		in("example.net", TypeNS, 3600, "ns1.example.net"),
		in("example.net", TypeNS, 3600, "ns2.cdn.example.net"),
	}
	m.Additional = []RR{
		in("ns1.example.net", TypeA, 3600, "203.0.113.1"),
		in("ns2.cdn.example.net", TypeAAAA, 3600, "2001:db8:0:0:0:0:0:53"),
		in("example.net", TypeTXT, 10, ""),
		in("example.net", TypeTXT, 10, strings.Repeat("x", 600)),
	}
	add("compression-sections", m)

	// Compression is case-sensitive: "Example.COM" shares no suffix with
	// "example.com".
	m = response("WWW.Example.COM", TypeA, RCodeNoError, false)
	m.Answers = []RR{
		in("www.example.com", TypeA, 9, "192.0.2.7"),
		in("WWW.Example.COM", TypeA, 9, "192.0.2.8"),
	}
	add("mixed-case", m)

	add("formerr", &Message{Header: Header{Response: true, RCode: RCodeFormErr}})
	return cases
}

func goldenPath(name string) string { return filepath.Join("testdata", "golden", name+".hex") }

// readGolden returns the wire bytes recorded for a corpus entry.
func readGolden(tb testing.TB, name string) []byte {
	tb.Helper()
	text, err := os.ReadFile(goldenPath(name))
	if err != nil {
		tb.Fatalf("golden corpus: %v (re-capture with -update on a known-good codec)", err)
	}
	wire, err := hex.DecodeString(strings.TrimSpace(string(text)))
	if err != nil {
		tb.Fatalf("golden corpus %s: %v", name, err)
	}
	return wire
}

// sameMessage compares two messages section by section, treating a nil and
// an empty section as equal.
func sameMessage(a, b *Message) bool {
	if a.Header != b.Header || len(a.Questions) != len(b.Questions) {
		return false
	}
	for i := range a.Questions {
		if a.Questions[i] != b.Questions[i] {
			return false
		}
	}
	return sameRRs(a.Answers, b.Answers) && sameRRs(a.Authority, b.Authority) && sameRRs(a.Additional, b.Additional)
}

func sameRRs(a, b []RR) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestGoldenWireCorpus(t *testing.T) {
	for _, tc := range goldenCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.msg.Encode()
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(goldenPath(tc.name)), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath(tc.name), []byte(hex.EncodeToString(got)+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want := readGolden(t, tc.name)
			if string(got) != string(want) {
				t.Errorf("encoded bytes differ from the recorded wire\n got %x\nwant %x", got, want)
			}
			// Appending after unrelated bytes must produce the same message.
			appended, err := tc.msg.AppendEncode([]byte("prefix"))
			if err != nil {
				t.Fatalf("AppendEncode: %v", err)
			}
			if string(appended) != "prefix"+string(want) {
				t.Errorf("AppendEncode after a prefix differs from the recorded wire")
			}
			back, err := Decode(want)
			if err != nil {
				t.Fatalf("Decode(recorded wire): %v", err)
			}
			if !sameMessage(back, tc.msg) {
				t.Errorf("recorded wire decodes to\n %+v\nwant\n %+v", back, tc.msg)
			}
		})
	}
}
