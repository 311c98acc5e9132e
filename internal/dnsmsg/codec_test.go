package dnsmsg

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// NewResponse builds a response skeleton mirroring query q.
func NewResponse(q *Message, rcode RCode) *Message {
	resp := &Message{
		Header: Header{
			ID:                 q.Header.ID,
			Response:           true,
			RecursionDesired:   q.Header.RecursionDesired,
			RecursionAvailable: true,
			RCode:              rcode,
		},
	}
	resp.Questions = append(resp.Questions, q.Questions...)
	return resp
}

func roundTrip(t *testing.T, m *Message) *Message {
	t.Helper()
	wire, err := m.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return got
}

func TestQueryRoundTrip(t *testing.T) {
	q := NewQuery(0xBEEF, "www.example.com", TypeA)
	got := roundTrip(t, q)
	if got.Header.ID != 0xBEEF {
		t.Errorf("ID = %#x, want 0xBEEF", got.Header.ID)
	}
	if !got.Header.RecursionDesired {
		t.Error("RD flag lost")
	}
	if got.Header.Response {
		t.Error("QR should be clear on a query")
	}
	if len(got.Questions) != 1 {
		t.Fatalf("questions = %d, want 1", len(got.Questions))
	}
	if got.Questions[0].Name != "www.example.com" || got.Questions[0].Type != TypeA {
		t.Errorf("question = %+v", got.Questions[0])
	}
}

func TestResponseRoundTripAllTypes(t *testing.T) {
	tests := []struct {
		name string
		rr   RR
	}{
		{name: "A", rr: RR{Name: "a.example.com", Type: TypeA, Class: ClassIN, TTL: 300, RData: IPv4(192, 0, 2, 17)}},
		{name: "AAAA", rr: RR{Name: "a.example.com", Type: TypeAAAA, Class: ClassIN, TTL: 60, RData: Text("2001:db8:0:0:0:0:0:1")}},
		{name: "CNAME", rr: RR{Name: "www.example.com", Type: TypeCNAME, Class: ClassIN, TTL: 20, RData: Text("edge.cdn.example.net")}},
		{name: "NS", rr: RR{Name: "example.com", Type: TypeNS, Class: ClassIN, TTL: 86400, RData: Text("ns1.example.com")}},
		{name: "TXT", rr: RR{Name: "example.com", Type: TypeTXT, Class: ClassIN, TTL: 3600, RData: Text("v=spf1 -all")}},
		{name: "SOA", rr: RR{Name: "example.com", Type: TypeSOA, Class: ClassIN, TTL: 3600, RData: Text("ns1.example.com hostmaster.example.com 2011120100 7200 3600 1209600 300")}},
		{name: "RRSIG", rr: RR{Name: "a.example.com", Type: TypeRRSIG, Class: ClassIN, TTL: 300, RData: Text("A 15 3 300 sig=deadbeef keytag=12345")}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			q := NewQuery(1, tt.rr.Name, tt.rr.Type)
			resp := NewResponse(q, RCodeNoError)
			resp.Answers = append(resp.Answers, tt.rr)
			got := roundTrip(t, resp)
			if len(got.Answers) != 1 {
				t.Fatalf("answers = %d, want 1", len(got.Answers))
			}
			if got.Answers[0] != tt.rr {
				t.Errorf("answer = %+v, want %+v", got.Answers[0], tt.rr)
			}
			if !got.Header.Response || got.Header.RCode != RCodeNoError {
				t.Errorf("header = %+v", got.Header)
			}
		})
	}
}

func TestNXDomainResponse(t *testing.T) {
	q := NewQuery(7, "missing.example.com", TypeA)
	resp := NewResponse(q, RCodeNXDomain)
	resp.Authority = append(resp.Authority, RR{
		Name: "example.com", Type: TypeSOA, Class: ClassIN, TTL: 300,
		RData: Text("ns1.example.com hostmaster.example.com 1 2 3 4 300"),
	})
	got := roundTrip(t, resp)
	if got.Header.RCode != RCodeNXDomain {
		t.Errorf("RCode = %v, want NXDOMAIN", got.Header.RCode)
	}
	if len(got.Authority) != 1 || got.Authority[0].Type != TypeSOA {
		t.Errorf("authority = %+v", got.Authority)
	}
}

func TestNameCompressionShrinksMessage(t *testing.T) {
	q := NewQuery(1, "a.very.long.subdomain.chain.example.com", TypeA)
	resp := NewResponse(q, RCodeNoError)
	for i := 0; i < 4; i++ {
		resp.Answers = append(resp.Answers, RR{
			Name: "a.very.long.subdomain.chain.example.com", Type: TypeA,
			Class: ClassIN, TTL: 300, RData: IPv4(192, 0, 2, 1),
		})
	}
	wire, err := resp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Uncompressed, each of the 5 names costs 41 octets; compression must
	// replace the 4 repeats with 2-octet pointers.
	nameLen := len("a.very.long.subdomain.chain.example.com") + 2
	uncompressed := 12 + nameLen + 4 + 4*(nameLen+10+4)
	if len(wire) >= uncompressed-100 {
		t.Errorf("wire len = %d, expected well under %d (compression)", len(wire), uncompressed)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatalf("Decode compressed: %v", err)
	}
	if len(got.Answers) != 4 || got.Answers[3].Name != "a.very.long.subdomain.chain.example.com" {
		t.Errorf("round-trip through compression failed: %+v", got.Answers)
	}
}

func TestCompressionSuffixSharing(t *testing.T) {
	q := NewQuery(1, "host1.example.com", TypeA)
	resp := NewResponse(q, RCodeNoError)
	resp.Answers = append(resp.Answers,
		RR{Name: "host1.example.com", Type: TypeCNAME, Class: ClassIN, TTL: 30, RData: Text("host2.example.com")},
		RR{Name: "host2.example.com", Type: TypeA, Class: ClassIN, TTL: 30, RData: IPv4(192, 0, 2, 2)},
	)
	got := roundTrip(t, resp)
	if got.Answers[0].RData != Text("host2.example.com") {
		t.Errorf("CNAME target = %q", got.Answers[0].RData.Text())
	}
	if got.Answers[1].Name != "host2.example.com" {
		t.Errorf("second owner = %q", got.Answers[1].Name)
	}
}

func TestDecodeTruncated(t *testing.T) {
	q := NewQuery(9, "www.example.com", TypeA)
	wire, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, 5, 11, len(wire) - 1} {
		if _, err := Decode(wire[:cut]); err == nil {
			t.Errorf("Decode(prefix %d) succeeded, want error", cut)
		}
	}
}

func TestDecodePointerLoop(t *testing.T) {
	// Header claiming one question whose name is a self-referencing pointer.
	wire := make([]byte, 12)
	wire[5] = 1 // QDCOUNT=1
	// Pointer to offset 12 (itself) -> must be rejected as forward/self ref.
	wire = append(wire, 0xC0, 12, 0, 1, 0, 1)
	if _, err := Decode(wire); !errors.Is(err, ErrBadPointer) {
		t.Errorf("Decode(pointer loop) = %v, want ErrBadPointer", err)
	}
}

func TestEncodeRejectsBadNames(t *testing.T) {
	q := NewQuery(1, strings.Repeat("a", 64)+".com", TypeA)
	if _, err := q.Encode(); !errors.Is(err, ErrLabelTooLong) {
		t.Errorf("long label err = %v, want ErrLabelTooLong", err)
	}
	q = NewQuery(1, strings.Repeat("abcdefgh.", 40)+"com", TypeA)
	if _, err := q.Encode(); !errors.Is(err, ErrNameTooLong) {
		t.Errorf("long name err = %v, want ErrNameTooLong", err)
	}
}

func TestEncodeRejectsBadRData(t *testing.T) {
	tests := []struct {
		name string
		rr   RR
	}{
		{name: "bad A", rr: RR{Name: "x.com", Type: TypeA, Class: ClassIN, RData: Text("not-an-ip")}},
		{name: "bad AAAA", rr: RR{Name: "x.com", Type: TypeAAAA, Class: ClassIN, RData: Text("1:2:3")}},
		{name: "bad SOA", rr: RR{Name: "x.com", Type: TypeSOA, Class: ClassIN, RData: Text("only three fields")}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := &Message{Answers: []RR{tt.rr}}
			if _, err := m.Encode(); err == nil {
				t.Error("Encode succeeded, want error")
			}
		})
	}
}

func TestIPv6Forms(t *testing.T) {
	tests := []struct {
		give string
		want string // canonical decode form
	}{
		{give: "2001:db8:0:0:0:0:0:1", want: "2001:db8:0:0:0:0:0:1"},
		{give: "2001:db8::1", want: "2001:db8:0:0:0:0:0:1"},
		{give: "::1", want: "0:0:0:0:0:0:0:1"},
		{give: "fe80::", want: "fe80:0:0:0:0:0:0:0"},
	}
	for _, tt := range tests {
		rr := RR{Name: "x.com", Type: TypeAAAA, Class: ClassIN, TTL: 1, RData: Text(tt.give)}
		m := &Message{Answers: []RR{rr}}
		wire, err := m.Encode()
		if err != nil {
			t.Fatalf("Encode(%q): %v", tt.give, err)
		}
		got, err := Decode(wire)
		if err != nil {
			t.Fatalf("Decode(%q): %v", tt.give, err)
		}
		if got.Answers[0].RData != Text(tt.want) {
			t.Errorf("AAAA %q -> %q, want %q", tt.give, got.Answers[0].RData.Text(), tt.want)
		}
	}
}

func TestTypeStringParse(t *testing.T) {
	for _, typ := range []Type{TypeA, TypeNS, TypeCNAME, TypeSOA, TypeTXT, TypeAAAA, TypeDNSKEY, TypeRRSIG} {
		got, err := ParseType(typ.String())
		if err != nil {
			t.Errorf("ParseType(%v): %v", typ, err)
		}
		if got != typ {
			t.Errorf("ParseType(%v.String()) = %v", typ, got)
		}
	}
	if _, err := ParseType("BOGUS"); err == nil {
		t.Error("ParseType(BOGUS) should fail")
	}
	if got := Type(999).String(); got != "TYPE999" {
		t.Errorf("unknown type String = %q", got)
	}
	if got := RCode(9).String(); got != "RCODE9" {
		t.Errorf("unknown rcode String = %q", got)
	}
}

// Property: random well-formed messages survive an encode/decode round trip.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	randName := func() string {
		n := rng.Intn(4) + 1
		labels := make([]string, n)
		for i := range labels {
			l := make([]byte, rng.Intn(12)+1)
			for j := range l {
				l[j] = "abcdefghijklmnopqrstuvwxyz0123456789-"[rng.Intn(37)]
			}
			labels[i] = string(l)
		}
		return strings.Join(labels, ".") + ".example.com"
	}
	f := func(id uint16, nAnswers uint8) bool {
		q := NewQuery(id, randName(), TypeA)
		resp := NewResponse(q, RCodeNoError)
		for i := 0; i < int(nAnswers%6); i++ {
			var rr RR
			switch rng.Intn(3) {
			case 0:
				rr = RR{Name: randName(), Type: TypeA, Class: ClassIN,
					TTL: uint32(rng.Intn(86400)), RData: IPv4(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))}
			case 1:
				rr = RR{Name: randName(), Type: TypeCNAME, Class: ClassIN,
					TTL: uint32(rng.Intn(86400)), RData: Text(randName())}
			default:
				rr = RR{Name: randName(), Type: TypeTXT, Class: ClassIN,
					TTL: uint32(rng.Intn(86400)), RData: Text(randName())}
			}
			resp.Answers = append(resp.Answers, rr)
		}
		wire, err := resp.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(wire)
		if err != nil {
			return false
		}
		if got.Header.ID != id || len(got.Answers) != len(resp.Answers) {
			return false
		}
		for i := range got.Answers {
			if got.Answers[i] != resp.Answers[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the decoder never panics on arbitrary bytes.
func TestDecodeFuzzSafety(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("Decode panicked on %x: %v", data, r)
			}
		}()
		_, _ = Decode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestLongTXTSplitsIntoStrings(t *testing.T) {
	long := strings.Repeat("x", 600)
	rr := RR{Name: "t.example.com", Type: TypeTXT, Class: ClassIN, TTL: 1, RData: Text(long)}
	m := &Message{Answers: []RR{rr}}
	got := roundTrip(t, m)
	if got.Answers[0].RData != Text(long) {
		t.Errorf("long TXT round trip failed: got %d bytes", len(got.Answers[0].RData.Text()))
	}
}

func TestDecodeUnknownRDataIsOpaque(t *testing.T) {
	// Hand-build a message with an unknown type (TYPE99): 12-byte header,
	// one answer with 4 bytes of rdata.
	var e = []byte{
		0, 1, // ID
		0x80, 0, // QR
		0, 0, // QDCOUNT
		0, 1, // ANCOUNT
		0, 0, 0, 0, // NS/AR
		1, 'x', 0, // owner "x"
		0, 99, // TYPE99
		0, 1, // IN
		0, 0, 0, 60, // TTL
		0, 4, // RDLENGTH
		1, 2, 3, 4,
	}
	m, err := Decode(e)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if m.Answers[0].RData != Text(`\# 4`) {
		t.Errorf("opaque rdata = %q", m.Answers[0].RData.Text())
	}
	if m.Answers[0].Type.String() != "TYPE99" {
		t.Errorf("type = %q", m.Answers[0].Type)
	}
}

func TestDecodeRDataLengthMismatch(t *testing.T) {
	// A claims 4 octets but RDLENGTH says 5: decoder must reject.
	var e = []byte{
		0, 1,
		0x80, 0,
		0, 0,
		0, 1,
		0, 0, 0, 0,
		1, 'x', 0,
		0, 1, // A
		0, 1, // IN
		0, 0, 0, 60,
		0, 5, // RDLENGTH (wrong: A is 4)
		1, 2, 3, 4, 5,
	}
	if _, err := Decode(e); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestSOATruncatedRData(t *testing.T) {
	q := NewQuery(1, "example.com", TypeSOA)
	resp := NewResponse(q, RCodeNoError)
	resp.Answers = append(resp.Answers, RR{
		Name: "example.com", Type: TypeSOA, Class: ClassIN, TTL: 300,
		RData: Text("ns1.example.com hostmaster.example.com 1 2 3 4 5"),
	})
	wire, err := resp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Chop the final serial field: decode must error, not panic.
	if _, err := Decode(wire[:len(wire)-2]); err == nil {
		t.Error("truncated SOA should fail")
	}
}

func TestRCodeStrings(t *testing.T) {
	tests := []struct {
		rc   RCode
		want string
	}{
		{RCodeNoError, "NOERROR"},
		{RCodeFormErr, "FORMERR"},
		{RCodeServFail, "SERVFAIL"},
		{RCodeNXDomain, "NXDOMAIN"},
	}
	for _, tt := range tests {
		if got := tt.rc.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", tt.rc, got, tt.want)
		}
	}
}
