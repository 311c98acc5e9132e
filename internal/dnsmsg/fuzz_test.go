package dnsmsg

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dnsnoise/internal/dnsname"
)

// hostileSeeds are the hand-built wires FuzzUnpack starts from besides the
// golden corpus. As f.Add seeds they also run on every plain `go test`.
func hostileSeeds() map[string][]byte {
	header := func(qd, an uint16) []byte {
		h := make([]byte, headerLen)
		h[2] = 0x80
		binary.BigEndian.PutUint16(h[offQDCount:], qd)
		binary.BigEndian.PutUint16(h[offANCount:], an)
		return h
	}
	seeds := map[string][]byte{
		// A name that is a pointer to itself.
		"pointer-self": append(header(1, 0), 0xC0, 12, 0, 1, 0, 1),
		// Two pointers pointing at each other: the second is a forward
		// reference from the first.
		"pointer-forward": append(header(1, 0), 0xC0, 14, 0xC0, 12, 0, 1, 0, 1),
		// A pointer past the end of the message.
		"pointer-out-of-bounds": append(header(1, 0), 0xC0, 0xFF, 0, 1, 0, 1),
		// A pointer into the header: bytes 4.. read as labels.
		"pointer-into-header": append(header(1, 0), 3, 'w', 'w', 'w', 0xC0, 4, 0, 1, 0, 1),
		// Reserved label types 0x40 and 0x80.
		"label-type-reserved": append(header(1, 0), 0x41, 'x', 0, 0, 1, 0, 1),
		// A label running past the end.
		"label-overrun": append(header(1, 0), 63, 'a', 'b'),
		// RDLENGTH promising more than the message holds.
		"rdata-truncated": append(header(0, 1), 1, 'x', 0, 0, 16, 0, 1, 0, 0, 0, 60, 0, 200, 5, 'h', 'e'),
		// An A record with five octets of rdata.
		"rdata-length-mismatch": append(header(0, 1), 1, 'x', 0, 0, 1, 0, 1, 0, 0, 0, 60, 0, 5, 1, 2, 3, 4, 5),
		// A TXT whose character string overruns its rdata.
		"txt-overrun": append(header(0, 1), 1, 'x', 0, 0, 16, 0, 1, 0, 0, 0, 60, 0, 2, 9, 'a', 'b', 'c'),
		// An SOA cut inside its numbers.
		"soa-truncated": append(header(0, 1), 1, 'x', 0, 0, 6, 0, 1, 0, 0, 0, 60, 0, 8, 1, 'm', 0, 1, 'r', 0, 0, 0),
		// Counts with nothing behind them.
		"counts-only": {0, 1, 0x81, 0x80, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
		// An EDNS0 query, and an unknown type carried opaquely.
		"edns-query":   appendOPT(append(header(1, 0), 1, 'x', 0, 0, 1, 0, 1), 1232),
		"unknown-type": append(header(0, 1), 1, 'x', 0, 0, 99, 0, 1, 0, 0, 0, 60, 0, 4, 1, 2, 3, 4),
		// dig's default query: OPT 1232 carrying an 8-byte client COOKIE.
		// Then OPTs the question reader leaves to the decoder: owned by a
		// pointer to a root byte (the header's), with rdata running past
		// the datagram, and beside a second additional record.
		"edns-cookie":        appendCookieOPT(append(header(1, 0), 1, 'x', 0, 0, 1, 0, 1)),
		"edns-pointer-owner": slices.Replace(appendOPT(append(header(1, 0), 1, 'x', 0, 0, 1, 0, 1), 1232), 19, 20, 0xC0, 4),
		"edns-rdata-overrun": append(appendOPT(append(header(1, 0), 1, 'x', 0, 0, 1, 0, 1), 1232)[:28], 0, 9, 0, 10),
		"edns-and-another":   appendOPT(appendOPT(append(header(1, 0), 1, 'x', 0, 0, 1, 0, 1), 1232), 512),
		// Labels the presentation form cannot carry: a dot inside, a blank.
		"label-with-dot":   append(header(1, 0), 2, 'a', '.', 1, 'b', 0, 0, 1, 0, 1),
		"label-ending-dot": append(header(1, 0), 2, 'a', '.', 0, 0, 1, 0, 1),
		"question-a.b":     append(header(1, 0), 3, 'a', '.', 'b', 1, 'x', 0, 0, 1, 0, 1),
		// Question names the in-place reader must normalize as
		// dnsname.Normalize does: upper-case ASCII, UTF-8 upper case, and
		// bytes that are not UTF-8 at all.
		"question-upper":   append(header(1, 0), 3, 'W', 'w', 'W', 2, 'E', 'x', 0, 0, 1, 0, 1),
		"question-utf8":    append(header(1, 0), 4, 0xC3, 0x89, 'T', 'E', 1, 'x', 0, 0, 1, 0, 1),
		"question-invalid": append(header(1, 0), 3, 0xFF, 'A', 0x80, 0, 0, 28, 0, 1),
		"label-with-blank": append(header(0, 1), 1, 'x', 0, 0, 6, 0, 1, 0, 0, 0, 60, 0, 27, 3, 'a', ' ', 'b', 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0, 5),
	}
	// The broken records again, moved to the authority section, which
	// UnpackReply walks without keeping: it must reject them as Unpack does.
	for _, name := range []string{"rdata-truncated", "rdata-length-mismatch", "txt-overrun", "soa-truncated", "label-with-blank"} {
		wire := slices.Clone(seeds[name])
		copy(wire[offNSCount:], wire[offANCount:offANCount+2])
		binary.BigEndian.PutUint16(wire[offANCount:], 0)
		seeds["authority-"+name] = wire
	}
	// A name one octet over the limit: four 63-octet labels.
	long := header(1, 0)
	for i := 0; i < 4; i++ {
		long = append(long, 63)
		long = append(long, strings.Repeat(string(rune('a'+i)), 63)...)
	}
	seeds["name-too-long"] = append(long, 0, 0, 1, 0, 1)
	// A chain of backward pointers hidden in TXT rdata, entered from the next
	// record's owner: ten hops resolve, seventy trip the jump limit.
	for name, hops := range map[string]int{"pointer-chain": 10, "pointer-chain-long": maxCompressionPointers + 6} {
		wire := append(header(1, 2), 1, 'a', 0, 0, 16, 0, 1)
		wire = append(wire, 0xC0, 12, 0, 16, 0, 1, 0, 0, 0, 0)
		wire = binary.BigEndian.AppendUint16(wire, uint16(1+2*hops))
		wire = append(wire, byte(2*hops))
		target := 12
		for i := 0; i < hops; i++ {
			at := len(wire)
			wire = binary.BigEndian.AppendUint16(wire, 0xC000|uint16(target))
			target = at
		}
		wire = binary.BigEndian.AppendUint16(wire, 0xC000|uint16(target))
		seeds[name] = append(wire, 0, 1, 0, 1, 0, 0, 0, 0, 0, 4, 10, 0, 0, 1)
	}
	return seeds
}

// lossless reports whether every SOA in m survives the trip through
// presentation form: one whose names hold blanks or are the root re-splits
// into different fields. (A decoded name never ends in a dot: a label
// holding one is refused.)
func lossless(m *Message) bool {
	for _, section := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for _, rr := range section {
			if rr.Type != TypeSOA {
				continue
			}
			if fields := strings.Fields(rr.RData.Text()); strings.Join(fields, " ") != rr.RData.Text() {
				return false
			}
		}
	}
	return true
}

// FuzzUnpack holds the decoder to six promises on arbitrary bytes: it never
// panics or reads out of bounds; unpacking into a dirty, reused Message gives
// what decoding into a fresh one gives; UnpackReply, told the name that was
// asked about (the right one, a wrong one, none), returns Unpack's header,
// questions, answers and error with the authority and additional sections
// empty, so walking those sections rejects exactly what decoding them
// rejects; whatever it accepts and the encoder can spell re-encodes to a
// fixed point, to the same message when the presentation forms are lossless,
// and to the same A addresses always; and the zero-alloc wire scanners
// (QuestionSectionEnd, EDNSUDPSize, AppendSoleQuestion) agree with it wherever
// both accept; and a question name is its labels: re-encoded, a decoded
// question name spells the query's label bytes, and the question reader's
// spells them up to ASCII case.
func FuzzUnpack(f *testing.F) {
	for _, tc := range goldenCorpus() {
		f.Add(readGolden(f, tc.name))
	}
	for _, wire := range hostileSeeds() {
		f.Add(wire)
	}
	var dirtyWire []byte
	for _, tc := range goldenCorpus() {
		if tc.name == "compression-sections" {
			dirtyWire = readGolden(f, tc.name)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fresh, err := Decode(data)

		var reused Message
		if err := reused.Unpack(dirtyWire); err != nil {
			t.Fatal(err)
		}
		reusedErr := reused.Unpack(data)
		if (err == nil) != (reusedErr == nil) {
			t.Fatalf("Decode: %v, Unpack into a used Message: %v", err, reusedErr)
		}
		if err == nil && !sameMessage(fresh, &reused) {
			t.Fatalf("Unpack into a used Message = %+v, Decode = %+v", reused, fresh)
		}

		var plain Message // not fresh: after an error there is a partial message to compare
		plainErr := plain.Unpack(data)
		askedNames := []string{"unrelated.example.net", ""}
		if len(plain.Questions) > 0 {
			askedNames = append(askedNames, plain.Questions[0].Name)
		}
		for _, asked := range askedNames {
			var reply Message
			replyErr := reply.UnpackReply(data, asked)
			if fmt.Sprint(replyErr) != fmt.Sprint(plainErr) || !sameReply(&reply, &plain) {
				t.Fatalf("UnpackReply(asked %q) = %+v, %v; Unpack = %+v, %v", asked, reply, replyErr, plain, plainErr)
			}
		}

		checkScanners(t, data, fresh)
		if err != nil {
			return
		}
		sole, _, _, soleOK := AppendSoleQuestion(nil, data)
		for i, off := 0, headerLen; i < len(fresh.Questions); i++ {
			labels, end := wireName(data, off)
			off = end + 4
			if got := encodeName(t, fresh.Questions[i].Name); !bytes.Equal(got, labels) {
				t.Fatalf("question %d: decoded %q re-encodes to %q; the query's labels are %q", i, fresh.Questions[i].Name, got, labels)
			}
			if got := encodeName(t, string(sole)); soleOK && !equalFoldASCII(got, labels) {
				t.Fatalf("AppendSoleQuestion read %q, which re-encodes to %q; the query's labels are %q", sole, got, labels)
			}
		}

		wire, err := fresh.Encode()
		if err != nil {
			return // a type or a name the encoder has no spelling for
		}
		back, err := Decode(wire)
		if err != nil {
			t.Fatalf("re-encoded message does not decode: %v\n wire %x", err, wire)
		}
		if lossless(fresh) && !sameMessage(back, fresh) {
			t.Fatalf("re-encoding changed the message:\n was %+v\n now %+v", fresh, back)
		}
		// An address has no presentation form to lose anything in: its four
		// bytes go decoder → Builder → decoder untouched, lossless or not.
		was := slices.Concat(fresh.Answers, fresh.Authority, fresh.Additional)
		now := slices.Concat(back.Answers, back.Authority, back.Additional)
		for i, rr := range was {
			if rr.Type == TypeA && (now[i].Type != TypeA || now[i].RData != rr.RData) {
				t.Fatalf("re-encoding changed an address: was %v, now %v", rr, now[i])
			}
		}
		again, err := back.Encode()
		if err != nil || string(again) != string(wire) {
			t.Fatalf("encode(decode(wire)) != wire: %v\n was %x\n now %x", err, wire, again)
		}
	})
}

// wireName returns the labels of the name at off in msg as one uncompressed
// wire name, root byte included, and the offset just past the name's own
// bytes. The decoder must have read the name.
func wireName(msg []byte, off int) (labels []byte, end int) {
	end = -1
	for {
		switch c := msg[off]; {
		case c == 0:
			if end < 0 {
				end = off + 1
			}
			return append(labels, 0), end
		case c&0xC0 == 0xC0:
			if end < 0 {
				end = off + 2
			}
			off = int(binary.BigEndian.Uint16(msg[off:]) & 0x3FFF)
		default:
			labels = append(labels, msg[off:off+1+int(c)]...)
			off += 1 + int(c)
		}
	}
}

// encodeName is the Builder's wire form of name, written as a message's
// first name, so uncompressed.
func encodeName(t *testing.T, name string) []byte {
	var b Builder
	b.Begin(nil, Header{})
	if err := b.Question(name, TypeA, ClassIN); err != nil {
		t.Fatalf("a decoded name does not encode: %q: %v", name, err)
	}
	wire := b.Bytes()
	return wire[headerLen : len(wire)-4]
}

// equalFoldASCII reports whether a and b are equal once A-Z are lowered.
func equalFoldASCII(a, b []byte) bool {
	lower := func(c byte) byte {
		if 'A' <= c && c <= 'Z' {
			return c + 'a' - 'A'
		}
		return c
	}
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if lower(a[i]) != lower(b[i]) {
			return false
		}
	}
	return true
}

// sameReply reports whether reply is what UnpackReply should make of the
// wire plain was unpacked from: plain's header, questions and answers, and
// nothing after them.
func sameReply(reply, plain *Message) bool {
	return reply.Header == plain.Header && len(reply.Authority)+len(reply.Additional) == 0 &&
		reflect.DeepEqual(reply.Questions, plain.Questions) && reflect.DeepEqual(reply.Answers, plain.Answers)
}

// checkScanners compares the wire scanners with the full decoder; m is nil
// when the decoder rejected data as a whole.
func checkScanners(t *testing.T, data []byte, m *Message) {
	// The question section on its own, by the decoder's rules.
	questionsEnd := -1
	if len(data) >= headerLen {
		d := decoder{data: data, pos: headerLen}
		ok := true
		for i := int(binary.BigEndian.Uint16(data[offQDCount:])); i > 0 && ok; i-- {
			if _, err := d.name(); err != nil || d.pos+4 > len(data) {
				ok = false
			}
			d.pos += 4
		}
		if ok {
			questionsEnd = d.pos
		}
	}
	if end := QuestionSectionEnd(data); end >= 0 && questionsEnd >= 0 && end != questionsEnd {
		t.Fatalf("QuestionSectionEnd = %d, the decoder's question section ends at %d", end, questionsEnd)
	}
	if questionsEnd >= 0 && QuestionSectionEnd(data) < 0 {
		t.Fatalf("QuestionSectionEnd rejects a question section the decoder reads (to %d)", questionsEnd)
	}

	// The in-place question reader: what it accepts is exactly a message of
	// one question, no answer or authority record and at most one
	// additional, a root-owned OPT; and the name it appends after whatever
	// the scratch held is the decoded name, normalized.
	const prefix = "scratch"
	name, id, qtype, plain := AppendSoleQuestion([]byte(prefix), data)
	if plain && (m == nil || len(m.Questions) != 1 || len(m.Answers)+len(m.Authority) != 0 ||
		len(m.Additional) > 1 || len(m.Additional) == 1 && (m.Additional[0].Type != TypeOPT || m.Additional[0].Name != "") ||
		m.Header.ID != id || m.Questions[0].Type != qtype ||
		string(name) != prefix+dnsname.Normalize(m.Questions[0].Name)) {
		t.Fatalf("AppendSoleQuestion = %q %#x %v, Decode = %+v", name, id, qtype, m)
	}
	if !plain && string(name) != prefix {
		t.Fatalf("AppendSoleQuestion rejected the wire but left %q in the scratch", name)
	}
	if m == nil {
		return
	}
	// The reader takes the OPT owner as the single root byte only; a root
	// spelled by a pointer is the decoder's alone.
	if !plain && len(m.Questions) == 1 && len(m.Answers)+len(m.Authority) == 0 &&
		(len(m.Additional) == 0 || len(m.Additional) == 1 && m.Additional[0].Type == TypeOPT && data[questionsEnd] == 0) {
		t.Fatalf("AppendSoleQuestion rejects a query the decoder reads: %+v", m)
	}
	size, found := EDNSUDPSize(data)
	var want uint16
	wantFound := false
	for _, rr := range m.Additional {
		if rr.Type == TypeOPT {
			want, wantFound = uint16(rr.Class), true
			break
		}
	}
	if found != wantFound || size != want {
		t.Fatalf("EDNSUDPSize = %d, %v; the decoded additional section says %d, %v", size, found, want, wantFound)
	}
}
