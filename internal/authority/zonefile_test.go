package authority

import (
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"testing"

	"dnsnoise/internal/dnsmsg"
)

const sampleZone = `
$ORIGIN example.com.
$TTL 600
; infrastructure
@          IN SOA   ns1 hostmaster 2011120100 7200 3600 1209600 300
@          IN NS    ns1
ns1        IN A     192.0.2.53
www  300   IN A     192.0.2.1
           IN AAAA  2001:db8::1
mail       IN A     192.0.2.25
alias      IN CNAME www
ext        IN CNAME edge.cdn.example.net.
*.shard    IN A     192.0.2.99
txt        IN TXT   "v=spf1 a ; include:example.net -all"
`

func parseSample(t *testing.T) *Zone {
	t.Helper()
	z, err := ParseZoneFile(strings.NewReader(sampleZone), "")
	if err != nil {
		t.Fatalf("ParseZoneFile: %v", err)
	}
	return z
}

func TestParseZoneFileBasics(t *testing.T) {
	z := parseSample(t)
	if z.Origin() != "example.com" {
		t.Errorf("origin = %q", z.Origin())
	}
	rrs := answers(t, z, "www.example.com", dnsmsg.TypeA)
	if len(rrs) != 1 {
		t.Fatalf("www A: %v", rrs)
	}
	if rrs[0].TTL != 300 {
		t.Errorf("www TTL = %d, want explicit 300", rrs[0].TTL)
	}
	if rrs[0].RData != dnsmsg.IPv4(192, 0, 2, 1) {
		t.Errorf("www = %v", rrs[0])
	}
	rrs = answers(t, z, "mail.example.com", dnsmsg.TypeA)
	if len(rrs) != 1 {
		t.Fatalf("mail A: %v", rrs)
	}
	if rrs[0].TTL != 600 {
		t.Errorf("mail TTL = %d, want $TTL 600", rrs[0].TTL)
	}
}

func TestParseZoneFileBlankOwnerRepeats(t *testing.T) {
	z := parseSample(t)
	rrs := answers(t, z, "www.example.com", dnsmsg.TypeAAAA)
	if len(rrs) != 1 {
		t.Fatalf("www AAAA (repeated owner): %v", rrs)
	}
	// The wire carries the address, whatever its spelling in the file.
	if addr, err := netip.ParseAddr(rrs[0].RData.Text()); err != nil || addr != netip.MustParseAddr("2001:db8::1") {
		t.Errorf("AAAA = %v", rrs[0])
	}
}

func TestParseZoneFileRelativeAndAbsoluteCNAME(t *testing.T) {
	z := parseSample(t)
	rrs := answers(t, z, "alias.example.com", dnsmsg.TypeA)
	if len(rrs) != 1 {
		t.Fatalf("alias: %v", rrs)
	}
	if rrs[0].Type != dnsmsg.TypeCNAME || rrs[0].RData != dnsmsg.Text("www.example.com") {
		t.Errorf("relative CNAME = %+v", rrs[0])
	}
	rrs = answers(t, z, "ext.example.com", dnsmsg.TypeCNAME)
	if len(rrs) != 1 {
		t.Fatalf("ext: %v", rrs)
	}
	if rrs[0].RData != dnsmsg.Text("edge.cdn.example.net") {
		t.Errorf("absolute CNAME = %v (trailing dot must stop expansion)", rrs[0])
	}
}

func TestParseZoneFileWildcard(t *testing.T) {
	z := parseSample(t)
	rrs := answers(t, z, "e17.shard.example.com", dnsmsg.TypeA)
	if len(rrs) != 1 {
		t.Fatalf("wildcard: %v", rrs)
	}
	if rrs[0].Name != "e17.shard.example.com" || rrs[0].RData != dnsmsg.IPv4(192, 0, 2, 99) {
		t.Errorf("wildcard synthesis = %+v", rrs[0])
	}
}

func TestParseZoneFileQuotedTXTWithSemicolon(t *testing.T) {
	z := parseSample(t)
	rrs := answers(t, z, "txt.example.com", dnsmsg.TypeTXT)
	if len(rrs) != 1 {
		t.Fatalf("txt: %v", rrs)
	}
	want := "v=spf1 a ; include:example.net -all"
	if rrs[0].RData != dnsmsg.Text(want) {
		t.Errorf("TXT rdata = %q, want %q", rrs[0].RData.Text(), want)
	}
}

func TestParseZoneFileAtOwner(t *testing.T) {
	z := parseSample(t)
	rrs := answers(t, z, "example.com", dnsmsg.TypeNS)
	if len(rrs) != 1 {
		t.Fatalf("apex NS: %v", rrs)
	}
	if rrs[0].RData != dnsmsg.Text("ns1.example.com") {
		t.Errorf("NS = %v", rrs[0])
	}
}

func TestParseZoneFileDefaultOriginArgument(t *testing.T) {
	input := "www IN A 192.0.2.1\n"
	z, err := ParseZoneFile(strings.NewReader(input), "given.org")
	if err != nil {
		t.Fatal(err)
	}
	if z.Origin() != "given.org" {
		t.Errorf("origin = %q", z.Origin())
	}
	if rrs := answers(t, z, "www.given.org", dnsmsg.TypeA); len(rrs) != 1 {
		t.Errorf("www.given.org A = %v", rrs)
	}
}

func TestParseZoneFileErrors(t *testing.T) {
	tests := []struct {
		name     string
		input    string
		wantErr  error
		wantLine int // when set, the error names this line
	}{
		{name: "no origin", input: "www IN A 192.0.2.1\n", wantErr: ErrNoOrigin},
		{name: "empty no origin", input: "", wantErr: ErrNoOrigin},
		{name: "bad directive", input: "$INCLUDE other.zone\n", wantErr: ErrZoneSyntax},
		{name: "bad ttl", input: "$ORIGIN x.com.\n$TTL soon\n", wantErr: ErrZoneSyntax},
		{name: "origin args", input: "$ORIGIN\n", wantErr: ErrZoneSyntax},
		{name: "too few fields", input: "$ORIGIN x.com.\nwww A\n", wantErr: ErrZoneSyntax},
		{name: "unknown type", input: "$ORIGIN x.com.\nwww IN WKS 1.2.3.4\n", wantErr: ErrZoneSyntax},
		{name: "blank owner first", input: "$ORIGIN x.com.\n  IN A 192.0.2.1\n", wantErr: ErrZoneSyntax},
		{name: "short soa", input: "$ORIGIN x.com.\n@ IN SOA ns1 hostmaster 1\n", wantErr: ErrZoneSyntax},
		// Rdata the wire encoder has no bytes for used to load, and then fail
		// every query for its owner with an empty reply.
		{name: "bad A", input: "$ORIGIN x.com.\nwww IN A not.an.ip\n", wantErr: ErrZoneSyntax, wantLine: 2},
		{name: "bad AAAA", input: "$ORIGIN x.com.\n\nwww IN AAAA 2001:db8::1::2\n", wantErr: ErrZoneSyntax, wantLine: 3},
		{name: "A with trailing bytes", input: "$ORIGIN x.com.\nwww IN A 192.0.2.1 192.0.2.2\n", wantErr: ErrZoneSyntax, wantLine: 2},
		{name: "bad soa number", input: "$ORIGIN x.com.\nsub IN SOA ns1 hostmaster 1 2h 3 4 5\n", wantErr: ErrZoneSyntax, wantLine: 2},
		{name: "cname with empty label", input: "$ORIGIN x.com.\nwww IN CNAME a..b\n", wantErr: ErrZoneSyntax, wantLine: 2},
		// Names the writer could not spell back bare.
		{name: "owner with blank", input: "$ORIGIN x.com.\n\"a b\" IN A 192.0.2.1\n", wantErr: ErrZoneSyntax, wantLine: 2},
		{name: "owner with semicolon", input: "$ORIGIN x.com.\n\"a;b\" IN A 192.0.2.1\n", wantErr: ErrZoneSyntax, wantLine: 2},
		{name: "origin with quote", input: "$ORIGIN x\"y.com.\n", wantErr: ErrZoneSyntax, wantLine: 1},
		{name: "label too long", input: "$ORIGIN x.com.\n" + strings.Repeat("a", 64) + " IN A 192.0.2.1\n", wantErr: ErrZoneSyntax, wantLine: 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := ParseZoneFile(strings.NewReader(tt.input), "")
			if !errors.Is(err, tt.wantErr) {
				t.Errorf("err = %v, want %v", err, tt.wantErr)
			}
			if want := fmt.Sprintf("line %d:", tt.wantLine); tt.wantLine > 0 && !strings.Contains(fmt.Sprint(err), want) {
				t.Errorf("err = %v, want it to name %s", err, want)
			}
		})
	}
}

// TestParseZoneFileEscapes: a backslash takes the next byte as is, so a
// quoted string can hold a quote or a backslash, and the writer spells both
// back.
func TestParseZoneFileEscapes(t *testing.T) {
	input := "$ORIGIN e.test.\n" +
		`q IN TXT "a;b \"q\" c" ; a comment` + "\n" +
		`b IN TXT "back\\slash" tail\ end` + "\n"
	z, err := ParseZoneFile(strings.NewReader(input), "")
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{
		"q.e.test": `a;b "q" c`,
		"b.e.test": `back\slash tail end`,
	} {
		if rrs := answers(t, z, name, dnsmsg.TypeTXT); len(rrs) != 1 || rrs[0].RData != dnsmsg.Text(want) {
			t.Errorf("%s TXT = %v; want %q", name, rrs, want)
		}
	}
	var first, second strings.Builder
	if err := z.WriteZoneFile(&first); err != nil {
		t.Fatal(err)
	}
	back, err := ParseZoneFile(strings.NewReader(first.String()), "")
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, first.String())
	}
	if err := back.WriteZoneFile(&second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Errorf("write → parse → write changed the file:\n%s\nbecame\n%s", first.String(), second.String())
	}
}

func TestParseZoneFileCommentsAndBlank(t *testing.T) {
	input := `
; leading comment
$ORIGIN c.test.

www IN A 192.0.2.1 ; trailing comment
`
	z, err := ParseZoneFile(strings.NewReader(input), "")
	if err != nil {
		t.Fatal(err)
	}
	if rrs := answers(t, z, "www.c.test", dnsmsg.TypeA); len(rrs) != 1 || rrs[0].RData != dnsmsg.IPv4(192, 0, 2, 1) {
		t.Errorf("www.c.test A = %v", rrs)
	}
}

func TestParsedZoneServesThroughServer(t *testing.T) {
	resp := ask(t, serve(t, parseSample(t)), "alias.example.com", dnsmsg.TypeA)
	if resp.Header.RCode != dnsmsg.RCodeNoError || len(resp.Answers) != 1 {
		t.Fatalf("resolve through server = %+v", resp)
	}
	// The answer is the CNAME; chain following is the resolver's job.
	if resp.Answers[0].Type != dnsmsg.TypeCNAME {
		t.Errorf("answer = %v", resp.Answers[0].Type)
	}
}
