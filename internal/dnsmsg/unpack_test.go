package dnsmsg

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"unsafe"

	"dnsnoise/internal/dnsname"
)

func mustEncode(t testing.TB, m *Message) []byte {
	t.Helper()
	wire, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestUnpackReuseDoesNotLeak: a Message unpacked into twice holds the second
// message only, and what a caller copied out of the first stays as it was.
func TestUnpackReuseDoesNotLeak(t *testing.T) {
	corpus := make(map[string]*Message)
	for _, tc := range goldenCorpus() {
		corpus[tc.name] = tc.msg
	}
	three, nx := corpus["synth-multi"], corpus["nxdomain-soa"]

	var m Message
	if err := m.Unpack(mustEncode(t, three)); err != nil {
		t.Fatal(err)
	}
	if !sameMessage(&m, three) {
		t.Fatalf("first unpack = %+v, want %+v", m, three)
	}
	kept := append([]RR(nil), m.Answers...)

	if err := m.Unpack(mustEncode(t, nx)); err != nil {
		t.Fatal(err)
	}
	if len(m.Answers) != 0 || len(m.Additional) != 0 {
		t.Errorf("NXDOMAIN unpacked over a 3-answer message kept records: answers %+v, additional %+v", m.Answers, m.Additional)
	}
	if !sameMessage(&m, nx) {
		t.Errorf("second unpack = %+v, want %+v", m, nx)
	}
	if !sameRRs(kept, three.Answers) {
		t.Errorf("records copied out of the first message changed: %+v", kept)
	}

	// A shorter message after a longer one, section by section.
	if err := m.Unpack(mustEncode(t, corpus["compression-sections"])); err != nil {
		t.Fatal(err)
	}
	if err := m.Unpack(mustEncode(t, corpus["query"])); err != nil {
		t.Fatal(err)
	}
	if !sameMessage(&m, corpus["query"]) {
		t.Errorf("query unpacked over a full response = %+v", m)
	}
}

// TestUnpackZeroAllocBudget: unpacking into a Message that has seen such a
// response before allocates only the strings that outlive the wire — the
// question's name, which every owner that spells it shares, and one rdata
// string per record that is not an A record: an address is four bytes of the
// RR itself.
func TestUnpackZeroAllocBudget(t *testing.T) {
	budget := map[string]float64{
		"a":            1, // name
		"synth-multi":  1, // name, not three more names or three addresses
		"aaaa":         2, // name + address text
		"nxdomain-soa": 3, // name + SOA owner + SOA rdata
	}
	for _, tc := range goldenCorpus() {
		want, ok := budget[tc.name]
		if !ok {
			continue
		}
		wire := mustEncode(t, tc.msg)
		var m Message
		if err := m.Unpack(wire); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if err := m.Unpack(wire); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > want {
			t.Errorf("%s: Unpack into a warmed Message allocated %.1f times per op, budget %.0f", tc.name, allocs, want)
		}
	}
}

// TestUnpackReplySharesAskedName: a reply that echoes the name the caller
// asked about is decoded onto that very string — question and owners — and,
// its answers being addresses, allocates nothing at all; whatever asked is,
// the reply is plain Unpack's up to its answers.
func TestUnpackReplySharesAskedName(t *testing.T) {
	var reply *Message
	for _, tc := range goldenCorpus() {
		if tc.name == "synth-multi" {
			reply = tc.msg
		}
	}
	wire := mustEncode(t, reply)
	asked := string(append([]byte(nil), reply.Questions[0].Name...)) // equal, not the corpus's string

	var m Message
	if err := m.UnpackReply(wire, asked); err != nil {
		t.Fatal(err)
	}
	if !sameMessage(&m, reply) {
		t.Fatalf("UnpackReply = %+v, want %+v", m, reply)
	}
	names := []string{m.Questions[0].Name}
	for _, rr := range m.Answers {
		names = append(names, rr.Name)
	}
	for i, name := range names {
		if unsafe.StringData(name) != unsafe.StringData(asked) {
			t.Errorf("name %d of the reply (%q) is a copy, not the asked string", i, name)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := m.UnpackReply(wire, asked); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("UnpackReply of an echoed 3-address reply allocated %.1f times per op, want 0", allocs)
	}

	mixed := bytes.Replace(wire, []byte("mcafee"), []byte("McAfee"), 1)
	if bytes.Equal(mixed, wire) {
		t.Fatal("the reply's name is not spelled out in its wire")
	}
	for _, tc := range []struct {
		what  string
		wire  []byte
		asked string
	}{
		{"a reply to a different name", wire, "www.example.com"},
		{"a mixed-case reply", mixed, asked},
		{"no asked name", wire, ""},
	} {
		var plain, got Message
		if err := plain.Unpack(tc.wire); err != nil {
			t.Fatal(err)
		}
		if err := got.UnpackReply(tc.wire, tc.asked); err != nil {
			t.Fatal(err)
		}
		if !sameReply(&got, &plain) {
			t.Errorf("%s: UnpackReply = %+v, Unpack = %+v", tc.what, got, plain)
		}
		if tc.asked != "" && unsafe.StringData(got.Questions[0].Name) == unsafe.StringData(tc.asked) {
			t.Errorf("%s: the question name is the asked string", tc.what)
		}
	}
}

// TestAppendEncodeZeroAlloc: the encoder's compression table lives in the
// Builder, on the stack — encoding into a warmed buffer allocates nothing.
func TestAppendEncodeZeroAlloc(t *testing.T) {
	for _, tc := range goldenCorpus() {
		dst := make([]byte, 0, 2048)
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := tc.msg.AppendEncode(dst[:0]); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: AppendEncode into a warmed buffer allocated %.1f times per op, want 0", tc.name, allocs)
		}
	}
}

// TestCompressionTableSpill: a message with more distinct name suffixes than
// the Builder tracks inline still compresses against all of them.
func TestCompressionTableSpill(t *testing.T) {
	m := NewResponse(NewQuery(1, "q.example.com", TypeA), RCodeNoError)
	for i := 0; i < 3*inlineTargets; i++ {
		name := "h" + string(rune('a'+i%26)) + string(rune('a'+i/26)) + ".example.com"
		m.Answers = append(m.Answers, RR{Name: name, Type: TypeCNAME, Class: ClassIN, TTL: 1, RData: Text("t." + name)})
	}
	wire := mustEncode(t, m)
	back, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMessage(back, m) {
		t.Fatal("round trip through a spilled compression table changed the message")
	}
	// Each answer after the table filled up still costs its own labels
	// only: "hxx" + pointer for the owner, "t" + pointer for the target.
	perRR := (len(wire) - len(mustEncode(t, NewResponse(NewQuery(1, "q.example.com", TypeA), RCodeNoError)))) / len(m.Answers)
	if want := (1 + 3 + 2) + 10 + (1 + 1 + 2); perRR != want {
		t.Errorf("bytes per answer = %d, want %d (every suffix compressed)", perRR, want)
	}
}

// TestStrictAddressParsers is the table for the hand-rolled parsers that
// replaced strings.Split + fmt.Sscanf. The "was accepted" rows are inputs
// the Sscanf version let through (it read a leading number and ignored the
// rest, took a sign, skipped blanks) and the encoder now rejects.
func TestStrictAddressParsers(t *testing.T) {
	v4 := []struct {
		give string
		want [4]byte
		ok   bool
	}{
		{"0.0.0.0", [4]byte{0, 0, 0, 0}, true},
		{"1.2.3.4", [4]byte{1, 2, 3, 4}, true},
		{"198.18.255.9", [4]byte{198, 18, 255, 9}, true},
		{"255.255.255.255", [4]byte{255, 255, 255, 255}, true},
		{"010.001.000.009", [4]byte{10, 1, 0, 9}, true}, // leading zeros stay decimal
		{"", [4]byte{}, false},
		{"1.2.3", [4]byte{}, false},
		{"1.2.3.4.5", [4]byte{}, false},
		{"256.1.1.1", [4]byte{}, false},
		{"1.1.1.256", [4]byte{}, false},
		{"1..3.4", [4]byte{}, false},
		{".2.3.4", [4]byte{}, false},
		{"1.2.3.", [4]byte{}, false},
		{"-1.2.3.4", [4]byte{}, false},
		{"1.2.3.4x", [4]byte{}, false},   // was accepted
		{"1x.2.3.4", [4]byte{}, false},   // was accepted
		{"+1.2.3.4", [4]byte{}, false},   // was accepted
		{" 1.2.3.4", [4]byte{}, false},   // was accepted
		{"1.2.3.4 ", [4]byte{}, false},   // was accepted
		{"0001.2.3.4", [4]byte{}, false}, // was accepted
		{"not-an-ip", [4]byte{}, false},
	}
	for _, tt := range v4 {
		got, err := parseIPv4(tt.give)
		if (err == nil) != tt.ok || tt.ok && got != tt.want {
			t.Errorf("parseIPv4(%q) = %v, %v; want %v, ok=%v", tt.give, got, err, tt.want, tt.ok)
		}
		if err != nil && !errors.Is(err, ErrBadRData) {
			t.Errorf("parseIPv4(%q) error %v is not ErrBadRData", tt.give, err)
		}
		if tt.ok {
			if back, err := parseIPv4(formatIPv4(got)); err != nil || back != got {
				t.Errorf("formatIPv4(%v) = %q does not parse back", got, formatIPv4(got))
			}
		}
	}

	v6 := []struct {
		give string
		want string // canonical form; "" = rejected
	}{
		{"2001:db8:0:0:0:0:0:1", "2001:db8:0:0:0:0:0:1"},
		{"2001:DB8::1", "2001:db8:0:0:0:0:0:1"},
		{"::", "0:0:0:0:0:0:0:0"},
		{"::1", "0:0:0:0:0:0:0:1"},
		{"fe80::", "fe80:0:0:0:0:0:0:0"},
		{"1:2:3:4::5:6:7:8", "1:2:3:4:5:6:7:8"}, // "::" standing for nothing: always accepted
		{"ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff", "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"},
		{"", ""},
		{"1:2:3", ""},
		{"1:2:3:4:5:6:7", ""},
		{"1:2:3:4:5:6:7:8:9", ""},
		{"1:2:3:4:5::6:7:8:9", ""},
		{"1::2::3", ""},
		{":::", ""},
		{":1:2:3:4:5:6:7", ""},
		{"1:2:3:4:5:6:7:", ""},
		{"12345::", ""},
		{"g::", ""},
		{"1:2:3:4:5:6:7:8x", ""},
		{"1.2.3.4", ""},
	}
	for _, tt := range v6 {
		got, err := parseIPv6(tt.give)
		if tt.want == "" {
			if err == nil {
				t.Errorf("parseIPv6(%q) = %v, want an error", tt.give, got)
			} else if !errors.Is(err, ErrBadRData) {
				t.Errorf("parseIPv6(%q) error %v is not ErrBadRData", tt.give, err)
			}
			continue
		}
		if err != nil || formatIPv6(got) != tt.want {
			t.Errorf("parseIPv6(%q) = %q, %v; want %q", tt.give, formatIPv6(got), err, tt.want)
		}
	}
}

// TestStrictSOAFields: the five SOA numbers are plain decimal uint32s; the
// Sscanf version read "7200s" as 7200 and now it is an error.
func TestStrictSOAFields(t *testing.T) {
	encode := func(rdata string) error {
		m := &Message{Answers: []RR{{Name: "example.com", Type: TypeSOA, Class: ClassIN, TTL: 1, RData: Text(rdata)}}}
		_, err := m.Encode()
		return err
	}
	for _, ok := range []string{
		"ns1.example.com hostmaster.example.com 2011120100 7200 3600 1209600 300",
		"  ns1.example.com\thostmaster.example.com 0 0 0 0 4294967295\n",
	} {
		if err := encode(ok); err != nil {
			t.Errorf("SOA %q: %v", ok, err)
		}
	}
	for _, bad := range []string{
		"ns1.example.com hostmaster.example.com 1 2 3 4",
		"ns1.example.com hostmaster.example.com 1 2 3 4 5 6",
		"ns1.example.com hostmaster.example.com 1 2 3 4 4294967296",
		"ns1.example.com hostmaster.example.com 1 2 3 4 -5",
		"ns1.example.com hostmaster.example.com 1 7200s 3 4 5", // was accepted
		"ns1.example.com hostmaster.example.com +1 2 3 4 5",
	} {
		if err := encode(bad); !errors.Is(err, ErrBadRData) {
			t.Errorf("SOA %q: err = %v, want ErrBadRData", bad, err)
		}
	}
}

func TestAppendSoleQuestion(t *testing.T) {
	wire := mustEncode(t, NewQuery(0xbeef, "WWW.Example.com", TypeAAAA))
	dst := []byte("kept")
	name, id, qtype, ok := AppendSoleQuestion(dst, wire)
	if !ok || id != 0xbeef || qtype != TypeAAAA || string(name) != "keptwww.example.com" {
		t.Errorf("AppendSoleQuestion(plain query) = %q, %#x, %v, %v", name, id, qtype, ok)
	}
	// Past ASCII the name is dnsname.Normalize's: only A-Z are lowered. A
	// label holding a dot is refused, by the reader and the decoder alike.
	for label, want := range map[string]string{"\xc3\x89COLE": "\xc3\x89cole", "\xff\xfeA": "\xff\xfea", "dot.": "", "a.b": ""} {
		raw := []byte{0xbe, 0xef, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, byte(len(label))}
		raw = append(append(raw, label...), 0, 0, 1, 0, 1)
		name, _, _, ok := AppendSoleQuestion(nil, raw)
		if ok != (want != "") || string(name) != want || want != dnsname.Normalize(want) {
			t.Errorf("AppendSoleQuestion(%q) = %q, %v; want %q", label, name, ok, want)
		}
		if _, err := Decode(raw); (err == nil) != ok || !ok && !errors.Is(err, ErrDotInLabel) {
			t.Errorf("Decode(%q): %v", label, err)
		}
	}
	// An EDNS query — a root-owned OPT, bare or carrying dig's COOKIE — is
	// read as the plain one; any other additional section is not.
	for _, edns := range [][]byte{
		appendOPT(slices.Clone(wire), 1232),
		appendCookieOPT(slices.Clone(wire)),
	} {
		name, id, qtype, ok := AppendSoleQuestion(nil, edns)
		if !ok || id != 0xbeef || qtype != TypeAAAA || string(name) != "www.example.com" {
			t.Errorf("AppendSoleQuestion(EDNS query) = %q, %#x, %v, %v", name, id, qtype, ok)
		}
	}
	opt := appendOPT(slices.Clone(wire), 1232)
	nonRoot := slices.Replace(slices.Clone(opt), len(wire), len(wire)+1, 1, 'x', 0)
	nonOPT := slices.Clone(opt)
	nonOPT[len(wire)+2] = byte(TypeTXT)
	overrun := slices.Clone(opt)
	overrun[len(overrun)-1] = 1 // RDLEN 1, no rdata behind it
	// Well-formed or not, every other additional section takes Unpack.
	for _, tc := range []struct {
		what    string
		wire    []byte
		decodes bool
	}{
		{"OPT and a second additional record", appendOPT(slices.Clone(opt), 512), true},
		{"an OPT owned by a name", nonRoot, true},
		{"an additional record that is no OPT", nonOPT, true},
		{"OPT rdata past the datagram", overrun, false},
		{"an OPT cut short", opt[:len(opt)-1], false},
	} {
		if _, _, _, ok := AppendSoleQuestion(nil, tc.wire); ok {
			t.Errorf("AppendSoleQuestion accepted %s", tc.what)
		}
		if _, err := Decode(tc.wire); (err == nil) != tc.decodes {
			t.Errorf("fixture: %s decodes with error %v", tc.what, err)
		}
	}
	for _, tc := range goldenCorpus() {
		if tc.name == "query" {
			continue
		}
		if _, _, _, ok := AppendSoleQuestion(nil, mustEncode(t, tc.msg)); ok && len(tc.msg.Answers)+len(tc.msg.Authority)+len(tc.msg.Additional) > 0 {
			t.Errorf("%s: a message with records is not a plain query", tc.name)
		}
	}
	for _, cut := range []int{0, 5, 11, 12, len(wire) - 1} {
		if _, _, _, ok := AppendSoleQuestion(nil, wire[:cut]); ok {
			t.Errorf("AppendSoleQuestion(prefix %d) accepted", cut)
		}
	}
}

// TestAppendQuestion: the server's reader returns the question's class, and
// takes on the full decoder what the sole-question reader refuses, the name
// normalized alike; a query without exactly one question is refused, and
// AppendFormErr answers it under its ID with the questions it holds.
func TestAppendQuestion(t *testing.T) {
	ch := NewQuery(0xbeef, "WWW.Example.com", TypeTXT)
	ch.Questions[0].Class = 3 // CH
	wire := mustEncode(t, ch)
	name, id, qtype, class, ok := AppendQuestion([]byte("kept"), wire)
	if !ok || id != 0xbeef || qtype != TypeTXT || class != 3 || string(name) != "keptwww.example.com" {
		t.Errorf("AppendQuestion(CH query) = %q, %#x, %v, %v, %v", name, id, qtype, class, ok)
	}
	twoOPT := appendOPT(appendOPT(mustEncode(t, NewQuery(7, "Mixed.Case.test", TypeA)), 1232), 512)
	name, id, qtype, class, ok = AppendQuestion(nil, twoOPT)
	if !ok || id != 7 || qtype != TypeA || class != ClassIN || string(name) != "mixed.case.test" {
		t.Errorf("AppendQuestion(two OPTs) = %q, %#x, %v, %v, %v", name, id, qtype, class, ok)
	}
	two := NewQuery(9, "a.test", TypeA)
	two.Questions = append(two.Questions, two.Questions[0])
	for _, tc := range []struct {
		what  string
		wire  []byte
		id    uint16
		qdcnt int
	}{
		{"two questions", mustEncode(t, two), 9, 2},
		{"a cut question", wire[:len(wire)-1], 0xbeef, 0},
	} {
		if _, _, _, _, ok := AppendQuestion(nil, tc.wire); ok {
			t.Errorf("AppendQuestion accepted %s", tc.what)
		}
		resp, err := AppendFormErr(nil, tc.wire)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Decode(resp)
		if err != nil || m.Header.ID != tc.id || !m.Header.Response || m.Header.RCode != RCodeFormErr || len(m.Questions) != tc.qdcnt {
			t.Errorf("AppendFormErr(%s) = %+v, %v", tc.what, m, err)
		}
	}
}
