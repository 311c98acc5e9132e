package dnsmsg

import (
	"errors"
	"strings"
	"testing"
	"unsafe"
)

// TestRecordSizes pins the two layouts everything else is sized by. An RR is
// 48 bytes — the size class a one-record []RR rounds up to anyway — and its
// RData 24, which every collector record and every stored pDNS record carries
// as its identity under the name: the address rides in padding. The obvious
// alternative, RData{text string; ip [16]byte} with AAAA inline too, makes
// them 56 and 32 and was measured (seed 1, 8 s): allocs/query fell a little
// further (replay-disposable 3.34 against 3.52) but bytes/query rose 7–9 %
// and sim-day's live heap went from 81.0 to 85.2 MiB, where this layout takes
// it down to 78.3. A field added to either struct is paid for by every cache
// entry and every record; measure before moving these numbers.
func TestRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(RR{}); got != 48 {
		t.Errorf("unsafe.Sizeof(RR{}) = %d, want 48", got)
	}
	if got := unsafe.Sizeof(RData{}); got != 24 {
		t.Errorf("unsafe.Sizeof(RData{}) = %d, want 24", got)
	}
}

// TestRDataTextLen: TextLen counts what Format spells, for every value of
// every octet position and for text payloads.
func TestRDataTextLen(t *testing.T) {
	for pos := 0; pos < 4; pos++ {
		for v := 0; v < 256; v++ {
			for _, rest := range []byte{0, 7, 42, 255} {
				ip := [4]byte{rest, rest, rest, rest}
				ip[pos] = byte(v)
				d := IPv4(ip[0], ip[1], ip[2], ip[3])
				if got, want := d.TextLen(TypeA), len(d.Format(TypeA)); got != want {
					t.Fatalf("%v: TextLen = %d, Format spells %q (%d)", ip, got, d.Format(TypeA), want)
				}
			}
		}
	}
	for _, tc := range []struct {
		typ  Type
		text string
	}{
		{TypeAAAA, "2001:db8:0:0:0:0:ff00:42"},
		{TypeCNAME, "edge.l.google.com"},
		{TypeTXT, ""},
		{TypeTXT, strings.Repeat("x", 300)},
	} {
		d := Text(tc.text)
		if d.TextLen(tc.typ) != len(tc.text) || d.Format(tc.typ) != tc.text {
			t.Errorf("%v %q: TextLen = %d, Format = %q", tc.typ, tc.text, d.TextLen(tc.typ), d.Format(tc.typ))
		}
	}
}

// TestParseRDataRoundTrip: ParseRData reads back what Format spells, to an
// equal value — for every value of every address octet, and for the AAAA
// texts the decoder and the workload produce.
func TestParseRDataRoundTrip(t *testing.T) {
	for pos := 0; pos < 4; pos++ {
		for v := 0; v < 256; v++ {
			ip := [4]byte{192, 0, 2, 1}
			ip[pos] = byte(v)
			d := IPv4(ip[0], ip[1], ip[2], ip[3])
			if d.IPv4() != ip {
				t.Fatalf("IPv4(%v).IPv4() = %v", ip, d.IPv4())
			}
			back, err := ParseRData(TypeA, d.Format(TypeA))
			if err != nil || back != d {
				t.Fatalf("ParseRData(A, %q) = %v, %v; want %v", d.Format(TypeA), back, err, d)
			}
		}
	}
	for _, ip := range [][16]byte{
		{},
		{0x20, 0x01, 0x0d, 0xb8, 14: 0xff, 15: 0x42},
		{0x01, 0x00, 12: 0xab, 13: 0xcd, 14: 0x00, 15: 0x09},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
	} {
		d := Text(formatIPv6(ip))
		back, err := ParseRData(TypeAAAA, d.Format(TypeAAAA))
		if err != nil || back != d {
			t.Errorf("ParseRData(AAAA, %q) = %v, %v; want %v", d.Format(TypeAAAA), back, err, d)
		}
	}
}

// TestParseRDataRejectsWhatTheEncoderWould: a payload ParseRData accepts
// encodes, and one it rejects is one the Builder would have rejected later.
func TestParseRDataRejectsWhatTheEncoderWould(t *testing.T) {
	for _, tc := range []struct {
		typ  Type
		text string
		ok   bool
	}{
		{TypeA, "192.0.2.1", true},
		{TypeA, "not.an.ip", false},
		{TypeA, "192.0.2.1 ", false},
		{TypeA, "192.0.2", false},
		{TypeAAAA, "2001:db8::1", true},
		{TypeAAAA, "2001:db8::1::2", false},
		{TypeAAAA, "192.0.2.1", false},
		{TypeCNAME, "www.example.com.", true},
		{TypeCNAME, "a..b", false},
		{TypeNS, strings.Repeat("a", 64) + ".com", false},
		{TypeTXT, "", true},
		{TypeTXT, strings.Repeat("x", 65000), true},
		{TypeTXT, strings.Repeat("x", 65300), false}, // 65300 + 257 length octets
		{TypeSOA, "ns1.x.com hostmaster.x.com 1 2 3 4 5", true},
		{TypeSOA, "ns1.x.com hostmaster.x.com 1 2 3 4 five", false},
		{TypeSOA, "\tns1.x.com\thostmaster.x.com\n1\v2\f3\r4  5\n", true},
		{TypeSOA, "ns1.x.com\thostmaster.x.com\n1\v2\f3\r4", false},     // six fields
		{TypeSOA, "ns1.x.com hostmaster.x.com 1 2 3 4 5\v6", false},     // eight
		{TypeSOA, "ns1.x.com hostmaster.x.com 1 2 3 4 5\u00a06", false}, // no-break space is not a separator
		{TypeRRSIG, "A 15 3 300 x.com sig=00 keytag=1", true},
		{Type(99), `\# 4`, false},
	} {
		d, err := ParseRData(tc.typ, tc.text)
		if (err == nil) != tc.ok {
			t.Errorf("ParseRData(%v, %.40q) error = %v, want ok=%v", tc.typ, tc.text, err, tc.ok)
			continue
		}
		m := &Message{Answers: []RR{{Name: "x.com", Type: tc.typ, Class: ClassIN, RData: d}}}
		if _, encErr := m.Encode(); tc.ok && encErr != nil {
			t.Errorf("ParseRData accepted %v %.40q, Encode: %v", tc.typ, tc.text, encErr)
		}
		if !tc.ok && tc.typ != TypeNS && !errors.Is(err, ErrBadRData) {
			t.Errorf("ParseRData(%v, %.40q) error %v is not ErrBadRData", tc.typ, tc.text, err)
		}
	}
}
