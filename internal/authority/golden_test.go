package authority

import (
	"bufio"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"dnsnoise/internal/dnsmsg"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/wire_golden.txt from the current server")

const goldenWirePath = "testdata/wire_golden.txt"

// goldenServer is a small authority touching every branch of the answer
// path: static records, CNAME at the owner, a wildcard, a synthesizer with a
// multi-record answer, a signed zone (deterministic key) and its DNSKEY.
func goldenServer(t testing.TB) *Server {
	t.Helper()
	s := NewServer()
	add := func(z *Zone, rrs ...dnsmsg.RR) {
		for _, rr := range rrs {
			if err := z.Add(rr); err != nil {
				t.Fatalf("Add(%v): %v", rr, err)
			}
		}
		if err := s.AddZone(z); err != nil {
			t.Fatal(err)
		}
	}
	in := func(name string, typ dnsmsg.Type, rdata string) dnsmsg.RR {
		d, err := dnsmsg.ParseRData(typ, rdata)
		if err != nil {
			t.Fatal(err)
		}
		return dnsmsg.RR{Name: name, Type: typ, Class: dnsmsg.ClassIN, TTL: 300, RData: d}
	}
	static, err := NewZone("example.com")
	if err != nil {
		t.Fatal(err)
	}
	add(static,
		in("www.example.com", dnsmsg.TypeA, "192.0.2.1"),
		in("www.example.com", dnsmsg.TypeA, "192.0.2.2"),
		in("www.example.com", dnsmsg.TypeAAAA, "2001:db8:0:0:0:0:0:1"),
		in("alias.example.com", dnsmsg.TypeCNAME, "www.example.com"),
		in("note.example.com", dnsmsg.TypeTXT, "hello world"),
		in("example.com", dnsmsg.TypeNS, "ns1.example.com"),
		in("*.shard.example.com", dnsmsg.TypeA, "192.0.2.77"),
	)
	synth, err := NewZone("avqs.mcafee.com", WithSynth(func(_ []byte, qtype dnsmsg.Type, dst []dnsmsg.RR) ([]dnsmsg.RR, bool) {
		if qtype != dnsmsg.TypeA {
			return dst, false
		}
		return append(dst,
			dnsmsg.RR{Type: qtype, Class: dnsmsg.ClassIN, TTL: 1, RData: dnsmsg.IPv4(127, 0, 3, 17)},
			dnsmsg.RR{Type: qtype, Class: dnsmsg.ClassIN, TTL: 1, RData: dnsmsg.IPv4(127, 0, 3, 18)},
		), true
	}))
	if err != nil {
		t.Fatal(err)
	}
	add(synth)
	signer, err := NewSigner("signed.test", rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	signed, err := NewZone("signed.test", WithSigner(signer))
	if err != nil {
		t.Fatal(err)
	}
	add(signed, in("tok.signed.test", dnsmsg.TypeA, "198.19.4.200"))
	return s
}

type goldenQuery struct {
	name string
	wire []byte
}

// goldenQueries spells the queries out on the wire, including shapes the
// codec's own encoder never produces.
func goldenQueries(t testing.TB) []goldenQuery {
	t.Helper()
	var out []goldenQuery
	plain := func(label string, id uint16, name string, qtype dnsmsg.Type) []byte {
		wire, err := dnsmsg.NewQuery(id, name, qtype).Encode()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, goldenQuery{label, wire})
		return wire
	}
	raw := func(label string, wire []byte) { out = append(out, goldenQuery{label, wire}) }

	plain("a", 0x1001, "www.example.com", dnsmsg.TypeA)
	plain("aaaa", 0x1002, "www.example.com", dnsmsg.TypeAAAA)
	plain("mixed-case", 0x1003, "WWW.Example.COM", dnsmsg.TypeA)
	plain("cname-for-a", 0x1004, "alias.example.com", dnsmsg.TypeA)
	plain("cname-itself", 0x1005, "alias.example.com", dnsmsg.TypeCNAME)
	plain("txt", 0x1006, "note.example.com", dnsmsg.TypeTXT)
	plain("apex-ns", 0x1007, "example.com", dnsmsg.TypeNS)
	plain("nodata", 0x1008, "note.example.com", dnsmsg.TypeA)
	plain("nxdomain", 0x1009, "nope.deep.example.com", dnsmsg.TypeA)
	plain("wildcard", 0x100a, "e17.shard.example.com", dnsmsg.TypeA)
	plain("wildcard-deep", 0x100b, "a.b.shard.example.com", dnsmsg.TypeA)
	plain("wildcard-nodata", 0x100c, "e17.shard.example.com", dnsmsg.TypeAAAA)
	plain("unmatched", 0x100d, "www.unknown.test", dnsmsg.TypeA)
	plain("synth", 0x100e, "0.0.0.0.1.0.0.4e.13cfus2drmdq.avqs.mcafee.com", dnsmsg.TypeA)
	plain("synth-declines", 0x100f, "0.0.4e.13cfus2drmdq.avqs.mcafee.com", dnsmsg.TypeTXT)
	plain("signed", 0x1010, "tok.signed.test", dnsmsg.TypeA)
	plain("dnskey", 0x1011, "signed.test", dnsmsg.TypeDNSKEY)
	plain("dnskey-unsigned-zone", 0x1012, "example.com", dnsmsg.TypeDNSKEY)
	plain("soa-qtype", 0x1013, "example.com", dnsmsg.TypeSOA)
	base := plain("trailing-dot-free", 0x1014, "www.example.com", dnsmsg.TypeA)

	// RD clear, class CH: the response header and question are rebuilt, not
	// echoed.
	chaos := append([]byte(nil), base...)
	chaos[0], chaos[1] = 0x20, 0x01
	chaos[2] = 0
	chaos[len(chaos)-1] = 3
	raw("rd-clear-class-ch", chaos)

	// EDNS0 OPT in the additional section, as dig sends.
	edns := append([]byte(nil), base...)
	edns[0], edns[1] = 0x20, 0x02
	edns[11] = 1
	edns = append(edns, 0, 0, 41, 0x04, 0xd0, 0, 0, 0, 0, 0, 0)
	raw("edns-opt", edns)

	// ARCOUNT promises a record that is not there.
	short := append([]byte(nil), base...)
	short[0], short[1] = 0x20, 0x03
	short[11] = 1
	raw("truncated-additional", short)

	// Trailing bytes no count accounts for.
	junk := append([]byte(nil), base...)
	junk[0], junk[1] = 0x20, 0x04
	raw("trailing-junk", append(junk, 0xde, 0xad))

	two := []byte{0x20, 0x05, 1, 0, 0, 2, 0, 0, 0, 0, 0, 0,
		1, 'a', 7, 'e', 'x', 'a', 'm', 'p', 'l', 'e', 3, 'c', 'o', 'm', 0, 0, 1, 0, 1,
		1, 'b', 0xC0, 14, 0, 1, 0, 1}
	raw("two-questions", two)
	raw("no-question", []byte{0x20, 0x06, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	raw("runt", []byte{1, 2, 3})
	raw("empty", nil)
	raw("pointer-loop", []byte{0x20, 0x07, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 12, 0, 1, 0, 1})
	// The question name ends in a pointer back into the header: legal for
	// the decoder, which reads bytes 4.. as labels (QDCOUNT 0x0001 is an
	// empty label, i.e. the end of the name).
	raw("pointer-into-header", []byte{0x20, 0x08, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0,
		3, 'w', 'w', 'w', 0xC0, 4, 0, 1, 0, 1})
	raw("root-question", []byte{0x20, 0x09, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1})
	return out
}

func readGoldenWire(t testing.TB) map[string][2]string {
	t.Helper()
	f, err := os.Open(goldenWirePath)
	if err != nil {
		t.Fatalf("golden wire: %v (re-capture with -update on a known-good server)", err)
	}
	defer f.Close()
	out := make(map[string][2]string)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		fields := strings.Split(sc.Text(), "\t")
		if len(fields) != 3 {
			t.Fatalf("golden wire: bad line %q", sc.Text())
		}
		out[fields[0]] = [2]string{fields[1], fields[2]}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGoldenWireResponses pins the authority's responses byte for byte to
// those recorded before AppendHandleWire stopped building intermediate
// messages (PR 14's parent), for well-formed and hostile queries alike.
func TestGoldenWireResponses(t *testing.T) {
	s := goldenServer(t)
	queries := goldenQueries(t)
	if *updateGolden {
		var sb strings.Builder
		for _, q := range queries {
			resp, err := s.HandleWire(q.wire)
			if err != nil {
				t.Fatalf("%s: %v", q.name, err)
			}
			fmt.Fprintf(&sb, "%s\t%s\t%s\n", q.name, hex.EncodeToString(q.wire), hex.EncodeToString(resp))
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenWirePath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		s = goldenServer(t) // fresh counters for the comparison below
	}
	golden := readGoldenWire(t)
	if len(golden) != len(queries) {
		t.Fatalf("golden file holds %d queries, test builds %d", len(golden), len(queries))
	}
	dst := make([]byte, 0, 512)
	for _, q := range queries {
		want, ok := golden[q.name]
		if !ok {
			t.Errorf("%s: not in golden file", q.name)
			continue
		}
		if got := hex.EncodeToString(q.wire); got != want[0] {
			t.Errorf("%s: query bytes changed\n got %s\nwant %s", q.name, got, want[0])
			continue
		}
		resp, err := s.AppendHandleWire(dst[:0], q.wire)
		if err != nil {
			t.Errorf("%s: AppendHandleWire: %v", q.name, err)
			continue
		}
		if got := hex.EncodeToString(resp); got != want[1] {
			t.Errorf("%s: response differs from the recorded wire\n got %s\nwant %s", q.name, got, want[1])
		}
	}
}
