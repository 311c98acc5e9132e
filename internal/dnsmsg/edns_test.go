package dnsmsg

import "testing"

// appendOPT adds an OPT pseudo-RR advertising size to an encoded message.
func appendOPT(wire []byte, size uint16) []byte {
	wire[11]++ // ARCOUNT
	return append(wire,
		0x00,       // root name
		0x00, 0x29, // TYPE OPT
		byte(size>>8), byte(size), // CLASS = requested UDP payload size
		0, 0, 0, 0, // TTL
		0x00, 0x00, // RDLEN
	)
}

// appendCookieOPT adds the OPT pseudo-RR dig sends by default: 1232 bytes,
// with an 8-byte client COOKIE option.
func appendCookieOPT(wire []byte) []byte {
	wire = appendOPT(wire, 1232)
	wire[len(wire)-1] = 12 // RDLEN
	return append(wire, 0, 10, 0, 8, 1, 2, 3, 4, 5, 6, 7, 8)
}

func TestQuestionSectionEnd(t *testing.T) {
	wire, err := NewQuery(1, "www.example.com", TypeA).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if got := QuestionSectionEnd(wire); got != len(wire) {
		t.Errorf("QuestionSectionEnd = %d, want %d (end of query)", got, len(wire))
	}
	// Short/malformed wires report -1 instead of panicking.
	for _, bad := range [][]byte{nil, wire[:4], wire[:13], {0, 1, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0}} {
		if got := QuestionSectionEnd(bad); got != -1 {
			t.Errorf("QuestionSectionEnd(%v) = %d, want -1", bad, got)
		}
	}
}

func TestQuestionSectionEndCompressedName(t *testing.T) {
	// A second question whose name is a compression pointer to the first
	// ends in two octets.
	wire := []byte{
		0, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0,
		1, 'x', 4, 't', 'e', 's', 't', 0, 0, 1, 0, 1,
		0xC0, 0x0C, 0, 1, 0, 1,
	}
	if got := QuestionSectionEnd(wire); got != len(wire) {
		t.Errorf("QuestionSectionEnd = %d, want %d", got, len(wire))
	}
	// A pointer that does not point back is malformed, as the decoder
	// reads it.
	self := []byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 0x0C, 0, 1, 0, 1}
	if got := QuestionSectionEnd(self); got != -1 {
		t.Errorf("QuestionSectionEnd(self-pointer) = %d, want -1", got)
	}
}

func TestEDNSUDPSize(t *testing.T) {
	plain, err := NewQuery(2, "www.example.com", TypeA).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if sz, ok := EDNSUDPSize(plain); ok {
		t.Errorf("plain query reported EDNS size %d", sz)
	}
	for _, want := range []uint16{512, 1232, 4096} {
		q, err := NewQuery(2, "www.example.com", TypeA).Encode()
		if err != nil {
			t.Fatal(err)
		}
		sz, ok := EDNSUDPSize(appendOPT(q, want))
		if !ok || sz != want {
			t.Errorf("EDNSUDPSize = (%d, %v), want (%d, true)", sz, ok, want)
		}
	}
}

func TestEDNSUDPSizeSkipsOtherAdditionalRecords(t *testing.T) {
	// An additional A record before the OPT must be walked over, not
	// misread as the OPT.
	q, err := NewQuery(3, "www.example.com", TypeA).Encode()
	if err != nil {
		t.Fatal(err)
	}
	q[11]++ // ARCOUNT for the A record
	q = append(q,
		1, 'x', 0, // name "x."
		0, 1, // TYPE A
		0, 1, // CLASS IN
		0, 0, 0, 60, // TTL
		0, 4, // RDLEN
		198, 18, 0, 1,
	)
	sz, ok := EDNSUDPSize(appendOPT(q, 1400))
	if !ok || sz != 1400 {
		t.Errorf("EDNSUDPSize = (%d, %v), want (1400, true)", sz, ok)
	}
}

func TestEDNSUDPSizeMalformed(t *testing.T) {
	q, err := NewQuery(4, "www.example.com", TypeA).Encode()
	if err != nil {
		t.Fatal(err)
	}
	withOPT := appendOPT(q, 4096)
	// Truncating anywhere inside the OPT must fail closed, not panic.
	for cut := len(q); cut < len(withOPT); cut++ {
		if _, ok := EDNSUDPSize(withOPT[:cut]); ok {
			t.Errorf("EDNSUDPSize succeeded on wire cut at %d", cut)
		}
	}
}

func TestEDNSUDPSizeZeroAlloc(t *testing.T) {
	q, err := NewQuery(5, "www.example.com", TypeA).Encode()
	if err != nil {
		t.Fatal(err)
	}
	wire := appendOPT(q, 1232)
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := EDNSUDPSize(wire); !ok {
			t.Fatal("scan failed")
		}
	}); allocs != 0 {
		t.Errorf("EDNSUDPSize allocates %.1f allocs/op, want 0", allocs)
	}
}
