package authority

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"

	"dnsnoise/internal/dnsmsg"
)

// zoneFileText renders the zone's static records in RFC 1035 master-file
// form, the reference ParseZoneFile's round-trip tests read back.
// Synthesized (programmatic) answers have no static representation and are
// noted in a comment. Records are sorted by owner name, wildcards last
// within an owner group.
func zoneFileText(z *Zone) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "$ORIGIN %s.\n", z.origin)
	fmt.Fprintf(&sb, "$TTL %d\n", negativeTTL)
	fmt.Fprintf(&sb, "@ IN SOA %s\n", zoneRData(&z.soa))
	if z.synth != nil {
		sb.WriteString("; zone answers additional names programmatically (synthesizer installed)\n")
	}

	type line struct {
		rr    *dnsmsg.RR
		rdata string
	}
	var lines []line
	for _, sets := range []map[string][]dnsmsg.RR{z.records, z.wildcards} {
		for _, set := range sets {
			for i := range set {
				lines = append(lines, line{&set[i], zoneRData(&set[i])})
			}
		}
	}
	// A total order: records that tie on every field print the same line.
	slices.SortFunc(lines, func(a, b line) int {
		return cmp.Or(strings.Compare(a.rr.Name, b.rr.Name), cmp.Compare(a.rr.Type, b.rr.Type),
			strings.Compare(a.rdata, b.rdata), cmp.Compare(a.rr.TTL, b.rr.TTL))
	})
	for _, l := range lines {
		fmt.Fprintf(&sb, "%s %d IN %s %s\n", relativeOwner(l.rr.Name, z.origin), l.rr.TTL, l.rr.Type, l.rdata)
	}
	return sb.String()
}

// quoteEscaper escapes what would end a quoted string early or be read as an
// escape itself.
var quoteEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`)

// zoneRData renders a record's rdata as ParseZoneFile reads it back: names
// absolute, so they are not expanded twice, and free text quoted.
func zoneRData(rr *dnsmsg.RR) string {
	text := rr.RData.Format(rr.Type)
	switch rr.Type {
	case dnsmsg.TypeA, dnsmsg.TypeAAAA:
		return text
	case dnsmsg.TypeCNAME, dnsmsg.TypeNS:
		return text + "."
	case dnsmsg.TypeSOA:
		if f := strings.Fields(text); len(f) == 7 {
			f[0] += "."
			f[1] += "."
			return strings.Join(f, " ")
		}
		return text
	default:
		return `"` + quoteEscaper.Replace(text) + `"`
	}
}

// relativeOwner renders an owner name relative to the origin ("@" at the
// apex), keeping the wildcard prefix.
func relativeOwner(name, origin string) string {
	if name == origin {
		return "@"
	}
	if rest, ok := strings.CutSuffix(name, "."+origin); ok {
		return rest
	}
	return name + "." // out-of-zone safety: absolute form
}

func TestWriteZoneFileRoundTrip(t *testing.T) {
	z := parseSample(t) // from zonefile_test.go
	text := zoneFileText(z)
	reparsed, err := ParseZoneFile(strings.NewReader(text), "")
	if err != nil {
		t.Fatalf("reparse exported zone: %v\n%s", err, text)
	}
	// Every query must be answered byte for byte the same after the round
	// trip.
	before, after := serve(t, z), serve(t, reparsed)
	for _, p := range []struct {
		name  string
		qtype dnsmsg.Type
	}{
		{name: "www.example.com", qtype: dnsmsg.TypeA},
		{name: "www.example.com", qtype: dnsmsg.TypeAAAA},
		{name: "alias.example.com", qtype: dnsmsg.TypeA},
		{name: "ext.example.com", qtype: dnsmsg.TypeCNAME},
		{name: "e9.shard.example.com", qtype: dnsmsg.TypeA},
		{name: "txt.example.com", qtype: dnsmsg.TypeTXT},
		{name: "missing.example.com", qtype: dnsmsg.TypeA},
	} {
		query, err := dnsmsg.NewQuery(7, p.name, p.qtype).Encode()
		if err != nil {
			t.Fatal(err)
		}
		orig, err1 := before.HandleWire(query)
		back, err2 := after.HandleWire(query)
		if err1 != nil || err2 != nil || !bytes.Equal(orig, back) {
			t.Errorf("%s/%v: reply %x (%v), after the round trip %x (%v)", p.name, p.qtype, orig, err1, back, err2)
		}
	}
}

func TestWriteZoneFileNotesSynth(t *testing.T) {
	z := mustZone(t, "d.test", WithSynth(func(_ []byte, _ dnsmsg.Type, dst []dnsmsg.RR) ([]dnsmsg.RR, bool) { return dst, false }))
	if !strings.Contains(zoneFileText(z), "programmatically") {
		t.Error("synth note missing")
	}
}
