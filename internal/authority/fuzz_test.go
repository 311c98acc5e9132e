package authority

import (
	"strings"
	"testing"

	"dnsnoise/internal/dnsmsg"
)

// FuzzParseZoneFile holds the zone-file reader to three promises on arbitrary
// text: it never panics; every record of a zone it accepts can be served (one
// query per owner and type through AppendHandleWire comes back NOERROR with
// answers — nothing loads that the wire encoder cannot spell); and
// write → ParseZoneFile → write, through the test writer zoneFileText,
// gives the same bytes, so a written zone is a fixed point. Seeds are the
// zone files of the package's tests; as f.Add seeds they also run on every
// plain `go test`.
func FuzzParseZoneFile(f *testing.F) {
	f.Add(sampleZone)
	f.Add("$ORIGIN c.test.\n\nwww IN A 192.0.2.1 ; trailing comment\n")
	f.Add("www IN A 192.0.2.1\n")
	f.Add("$ORIGIN x.com.\n$TTL 60\n@ IN SOA ns1 hostmaster 1 2 3 4 5\nsub IN SOA ns1 hostmaster.x.com. 1 2 3 4 5\n")
	f.Add("$ORIGIN e.test.\nq IN TXT \"a;b \\\"q\\\" c\"\nb TXT \"back\\\\slash\" tail\\ end\n")
	f.Add("$ORIGIN x.com.\n* 5 A 001.2.3.4\n  IN AAAA ::\n*.w CNAME @\nk DNSKEY 257 3 15 \"a  b\"\nwww A 1.2.3.4\nwww 9 A 1.2.3.4\n")
	f.Add("$ORIGIN x.com.\nwww IN A not.an.ip\n")
	f.Add("$ORIGIN x.com.\n\"a b\" IN A 192.0.2.1\n\"$x\" NS \"a;b\"\n")
	f.Fuzz(func(t *testing.T, input string) {
		z, err := ParseZoneFile(strings.NewReader(input), "fuzz.test")
		if err != nil {
			return
		}
		s := NewServer()
		if err := s.AddZone(z); err != nil {
			t.Fatal(err)
		}
		for _, sets := range []map[string][]dnsmsg.RR{z.records, z.wildcards} {
			for _, set := range sets {
				for i, rr := range set {
					if i > 0 && set[i-1].Type == rr.Type {
						continue // asked with the first of its RRset
					}
					query, err := dnsmsg.NewQuery(1, rr.Name, rr.Type).Encode()
					if err != nil {
						t.Fatalf("the zone holds %v, which no query can ask for: %v", rr, err)
					}
					wire, err := s.HandleWire(query)
					if err != nil {
						t.Fatalf("query for %v: %v", rr, err)
					}
					resp, err := dnsmsg.Decode(wire)
					if err != nil || resp.Header.RCode != dnsmsg.RCodeNoError || len(resp.Answers) == 0 {
						t.Fatalf("query for %v: reply %+v, %v", rr, resp, err)
					}
				}
			}
		}

		first := zoneFileText(z)
		back, err := ParseZoneFile(strings.NewReader(first), "")
		if err != nil {
			t.Fatalf("the written zone does not parse: %v\n%s", err, first)
		}
		if second := zoneFileText(back); first != second {
			t.Fatalf("write → parse → write changed the file:\n%s\nbecame\n%s", first, second)
		}
	})
}
