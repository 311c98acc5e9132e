package authority

import (
	"testing"

	"dnsnoise/internal/dnsmsg"
)

// BenchmarkAppendHandleWire is the authority half of a resolver miss and the
// whole of a front-door packet: one plain query answered into a reused
// buffer, for a static single-A name, a three-record synthesized answer of
// the disposable kind, and an NXDOMAIN with its SOA.
func BenchmarkAppendHandleWire(b *testing.B) {
	s := NewServer()
	static, err := NewZone("example.com")
	if err != nil {
		b.Fatal(err)
	}
	if err := static.Add(aRR("www.example.com", "192.0.2.1")); err != nil {
		b.Fatal(err)
	}
	synth, err := NewZone("avqs.mcafee.com", WithSynth(func(_ []byte, qtype dnsmsg.Type, dst []dnsmsg.RR) ([]dnsmsg.RR, bool) {
		for range 3 {
			dst = append(dst, dnsmsg.RR{Type: qtype, Class: dnsmsg.ClassIN, TTL: 1, RData: dnsmsg.IPv4(127, 0, 3, 17)})
		}
		return dst, true
	}))
	if err != nil {
		b.Fatal(err)
	}
	for _, z := range []*Zone{static, synth} {
		if err := s.AddZone(z); err != nil {
			b.Fatal(err)
		}
	}
	for _, bc := range []struct{ label, name string }{
		{"static", "www.example.com"},
		{"synth3", "0.0.0.0.1.0.0.4e.13cfus2drmdq.avqs.mcafee.com"},
		{"nxdomain", "nope.deep.example.com"},
	} {
		b.Run(bc.label, func(b *testing.B) {
			query, err := dnsmsg.NewQuery(7, bc.name, dnsmsg.TypeA).Encode()
			if err != nil {
				b.Fatal(err)
			}
			dst := make([]byte, 0, 512)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := s.AppendHandleWire(dst[:0], query)
				if err != nil {
					b.Fatal(err)
				}
				dst = out
			}
		})
	}
}
