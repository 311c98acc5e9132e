package pdns

import (
	"time"

	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/jsonl"
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

// FpWriter streams fpDNS tuples as JSON lines. Unsuccessful resolutions
// are excluded, as in the paper's fpDNS dataset (which records the answer
// sections only).
type FpWriter struct{ *jsonl.Writer[FpRecord] }

// Tap returns a resolver tap recording every successful answer record.
// A write error is kept by the writer and surfaces on Close.
func (w FpWriter) Tap() resolver.Tap {
	return resolver.TapFunc(func(ob resolver.Observation) {
		if ob.RCode != dnsmsg.RCodeNoError || ob.RR.Name == "" {
			return
		}
		w.Write(&FpRecord{
			Time:   ob.Time.Truncate(time.Second),
			Client: ob.ClientID,
			QName:  ob.QName,
			Name:   ob.RR.Name,
			Type:   ob.RR.Type.String(),
			TTL:    ob.RR.TTL,
			RData:  ob.RR.RData.Format(ob.RR.Type),
		})
	})
}
