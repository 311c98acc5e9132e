package authority

import (
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
	// Every lookup must behave identically after the round trip.
	probes := []struct {
		name  string
		qtype dnsmsg.Type
	}{
		{name: "www.example.com", qtype: dnsmsg.TypeA},
		{name: "www.example.com", qtype: dnsmsg.TypeAAAA},
		{name: "alias.example.com", qtype: dnsmsg.TypeA},
		{name: "ext.example.com", qtype: dnsmsg.TypeCNAME},
		{name: "e9.shard.example.com", qtype: dnsmsg.TypeA},
		{name: "txt.example.com", qtype: dnsmsg.TypeTXT},
	}
	for _, p := range probes {
		orig, err1 := z.Lookup(p.name, p.qtype)
		back, err2 := reparsed.Lookup(p.name, p.qtype)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s/%v: errs %v vs %v", p.name, p.qtype, err1, err2)
		}
		if len(orig) != len(back) {
			t.Fatalf("%s/%v: %d vs %d records", p.name, p.qtype, len(orig), len(back))
		}
		for i := range orig {
			if orig[i] != back[i] {
				t.Errorf("%s/%v: %+v vs %+v", p.name, p.qtype, orig[i], back[i])
			}
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
