package pdns

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/jsonl"
	"dnsnoise/internal/resolver"
)

func TestFpWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := jsonl.NewWriter[FpRecord](&buf)
	tap := FpWriter{Writer: w}.Tap()
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

	recs, err := jsonl.Read[FpRecord](&buf)
	if err != nil {
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

func TestReadFpDNSMalformed(t *testing.T) {
	if _, err := jsonl.Read[FpRecord](strings.NewReader("{broken\n")); err == nil {
		t.Error("malformed line should fail")
	}
}
