package pdns

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/resolver"
)

func TestFpWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewFpWriter(&buf)
	tap := w.Tap()
	at := time.Date(2011, 12, 1, 8, 0, 0, 123456789, time.UTC)
	tap.Observe(resolver.Observation{
		Time: at, ClientID: 42, QName: "www.example.com",
		RR:    dnsmsg.RR{Name: "www.example.com", Type: dnsmsg.TypeA, TTL: 300, RData: dnsmsg.IPv4(192, 0, 2, 1)},
		RCode: dnsmsg.RCodeNoError,
	})
	// Excluded: NXDOMAIN and NODATA observations.
	tap.Observe(resolver.Observation{Time: at, QName: "missing.example.com", RCode: dnsmsg.RCodeNXDomain})
	tap.Observe(resolver.Observation{Time: at, QName: "nodata.example.com", RCode: dnsmsg.RCodeNoError})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 1 {
		t.Fatalf("Count = %d, want 1", w.Count())
	}

	var recs []FpRecord
	if err := ReadFpDNS(&buf, func(r FpRecord) bool {
		recs = append(recs, r)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	rec := recs[0]
	if rec.Client != 42 || rec.Name != "www.example.com" || rec.Type != "A" ||
		rec.TTL != 300 || rec.RData != "192.0.2.1" {
		t.Errorf("record = %+v", rec)
	}
	// The paper's tuples carry second granularity.
	if rec.Time.Nanosecond() != 0 {
		t.Errorf("timestamp not truncated to seconds: %v", rec.Time)
	}
}

func TestReadFpDNSEarlyStop(t *testing.T) {
	input := `{"ts":"2011-12-01T00:00:00Z","client":1,"qname":"a.test","name":"a.test","type":"A","ttl":60,"rdata":"1.2.3.4"}
{"ts":"2011-12-01T00:00:01Z","client":2,"qname":"b.test","name":"b.test","type":"A","ttl":60,"rdata":"1.2.3.5"}
`
	n := 0
	if err := ReadFpDNS(strings.NewReader(input), func(FpRecord) bool {
		n++
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("visited %d, want 1 (early stop)", n)
	}
}

func TestReadFpDNSMalformed(t *testing.T) {
	if err := ReadFpDNS(strings.NewReader("{broken\n"), func(FpRecord) bool { return true }); err == nil {
		t.Error("malformed line should fail")
	}
}
