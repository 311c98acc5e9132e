package pdns

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/resolver"
)

// FpRecord is one fpDNS tuple, matching the paper's Section III-A schema:
// the timestamp of the resolution event (second granularity), an anonymized
// client ID, the queried domain name, the query type, the TTL, and the
// RDATA of the answer record.
type FpRecord struct {
	Time   time.Time `json:"ts"`
	Client uint32    `json:"client"`
	QName  string    `json:"qname"`
	Name   string    `json:"name"`
	Type   string    `json:"type"`
	TTL    uint32    `json:"ttl"`
	RData  string    `json:"rdata"`
}

// FpWriter streams fpDNS tuples to a writer as JSON lines. Unsuccessful
// resolutions are excluded, as in the paper's fpDNS dataset (which records
// the answer sections only).
type FpWriter struct {
	bw  *bufio.Writer
	enc *json.Encoder
	n   uint64
}

// NewFpWriter wraps w.
func NewFpWriter(w io.Writer) *FpWriter {
	bw := bufio.NewWriterSize(w, 1<<16)
	return &FpWriter{bw: bw, enc: json.NewEncoder(bw)}
}

// Tap returns a resolver tap recording every successful answer record.
// Encoding errors surface on Flush.
func (w *FpWriter) Tap() resolver.Tap {
	return resolver.TapFunc(func(ob resolver.Observation) {
		if ob.RCode != dnsmsg.RCodeNoError || ob.RR.Name == "" {
			return
		}
		rec := FpRecord{
			Time:   ob.Time.Truncate(time.Second),
			Client: ob.ClientID,
			QName:  ob.QName,
			Name:   ob.RR.Name,
			Type:   ob.RR.Type.String(),
			TTL:    ob.RR.TTL,
			RData:  ob.RR.RData.Format(ob.RR.Type),
		}
		if err := w.enc.Encode(rec); err == nil {
			w.n++
		}
	})
}

// Count returns the number of tuples written.
func (w *FpWriter) Count() uint64 { return w.n }

// Flush drains the buffer.
func (w *FpWriter) Flush() error {
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("pdns: flush fpDNS stream: %w", err)
	}
	return nil
}

// ReadFpDNS parses an fpDNS JSONL stream, invoking visit for each record;
// a visit returning false stops early.
func ReadFpDNS(r io.Reader, visit func(FpRecord) bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec FpRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return fmt.Errorf("pdns: fpDNS line %d: %w", line, err)
		}
		if !visit(rec) {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("pdns: read fpDNS stream: %w", err)
	}
	return nil
}
