package dnsmsg

import "testing"

func benchMessage() *Message {
	q := NewQuery(0x1234, "p2.a22a43lt5rwfg.ihg5ki5i6q3cfn3n.191742.i1.ds.ipv6-exp.l.google.com", TypeA)
	resp := NewResponse(q, RCodeNoError)
	resp.Answers = append(resp.Answers,
		RR{Name: q.Questions[0].Name, Type: TypeCNAME, Class: ClassIN, TTL: 300, RData: Text("target.l.google.com")},
		RR{Name: "target.l.google.com", Type: TypeA, Class: ClassIN, TTL: 300, RData: IPv4(198, 18, 7, 9)},
		RR{Name: "target.l.google.com", Type: TypeA, Class: ClassIN, TTL: 300, RData: IPv4(198, 18, 7, 10)},
	)
	return resp
}

func BenchmarkEncode(b *testing.B) {
	m := benchMessage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	wire, err := benchMessage().Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnpack is BenchmarkDecode into one reused Message, the way the
// resolver reads upstream responses.
func BenchmarkUnpack(b *testing.B) {
	wire, err := benchMessage().Encode()
	if err != nil {
		b.Fatal(err)
	}
	var m Message
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := m.Unpack(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRoundTrip(b *testing.B) {
	m := benchMessage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wire, err := m.Encode()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Decode(wire); err != nil {
			b.Fatal(err)
		}
	}
}
