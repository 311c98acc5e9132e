package authority

import (
	"bytes"
	"strings"
	"testing"

	"dnsnoise/internal/dnsmsg"
)

func TestWriteZoneFileRoundTrip(t *testing.T) {
	z := parseSample(t) // from zonefile_test.go
	var sb strings.Builder
	if err := z.WriteZoneFile(&sb); err != nil {
		t.Fatal(err)
	}
	reparsed, err := ParseZoneFile(strings.NewReader(sb.String()), "")
	if err != nil {
		t.Fatalf("reparse exported zone: %v\n%s", err, sb.String())
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
	var sb strings.Builder
	if err := z.WriteZoneFile(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "programmatically") {
		t.Error("synth note missing")
	}
}
