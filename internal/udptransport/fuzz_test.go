package udptransport

import (
	"encoding/binary"
	"testing"

	"dnsnoise/internal/dnsmsg"
)

// FuzzFrontDoor sends arbitrary datagrams through one listener worker's
// packet path, answered by floodAuthority. It must not panic, and every
// reply carries the query's ID and is a FORMERR or answers the question it
// was asked: a query of one question, and the reply's question has its
// labels, equal up to ASCII case, and its type, as a stub that matches
// replies to queries (RFC 5452 §9.1) requires. (The class is not compared:
// the authority answers every class as IN, which its golden
// rd-clear-class-ch records.)
func FuzzFrontDoor(f *testing.F) {
	query := func(id uint16, labels ...string) []byte {
		wire := binary.BigEndian.AppendUint16(nil, id)
		wire = append(wire, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0)
		for _, l := range labels {
			wire = append(append(wire, byte(len(l))), l...)
		}
		return append(wire, 0, 0, 1, 0, 1)
	}
	for _, seed := range [][]byte{
		query(1, "a.b", "wild", "bench", "test"),      // a dot inside a label
		query(2, "x\x80y", "wild", "bench", "test"),   // not UTF-8
		query(3, "\xc3\x80", "wild", "bench", "test"), // À
		query(4, "WwW", "Bench", "TEST"),
		appendCookieOPT(query(5, "www", "bench", "test")), // dig's query
	} {
		f.Add(seed)
	}
	w := &listenerWorker{srv: &Server{wire: floodAuthority(f)}, slots: make([]pktBuf, 1)}
	f.Fuzz(func(t *testing.T, data []byte) {
		b := &w.slots[0]
		b.in = data
		w.process(b)
		if !b.send {
			return
		}
		reply := b.out
		if len(reply) < dnsHeaderLen || reply[0] != data[0] || reply[1] != data[1] {
			t.Fatalf("reply %x to query %x: not under the query's ID", reply, data)
		}
		if dnsmsg.RCode(reply[3]&0x0F) == dnsmsg.RCodeFormErr {
			return
		}
		asked, ok := firstQuestion(data)
		if !ok || binary.BigEndian.Uint16(data[4:]) != 1 {
			t.Fatalf("reply %x to a query without one readable question: %x", reply, data)
		}
		got, ok := firstQuestion(reply)
		if !ok || binary.BigEndian.Uint16(reply[4:]) != 1 || !sameQuestion(got, asked) {
			t.Fatalf("reply's question %q, the query's %q", got, asked)
		}
	})
}

// firstQuestion returns the first question of msg: the name's labels,
// uncompressed, then the type. ok is false when msg holds no question that
// can be read.
func firstQuestion(msg []byte) (q []byte, ok bool) {
	off, end := dnsHeaderLen, -1
	for hops := 0; off < len(msg); {
		switch c := int(msg[off]); {
		case c == 0:
			if end < 0 {
				end = off + 1
			}
			if end+4 > len(msg) {
				return nil, false
			}
			return append(append(q, 0), msg[end:end+2]...), true
		case c&0xC0 == 0xC0:
			if hops++; off+2 > len(msg) || hops > 64 {
				return nil, false
			}
			if end < 0 {
				end = off + 2
			}
			off = int(binary.BigEndian.Uint16(msg[off:]) & 0x3FFF)
		case c&0xC0 != 0 || off+1+c > len(msg):
			return nil, false
		default:
			q = append(q, msg[off:off+1+c]...)
			off += 1 + c
		}
	}
	return nil, false
}

// sameQuestion reports whether two questions from firstQuestion are equal
// once A-Z in their names are lowered.
func sameQuestion(a, b []byte) bool {
	lower := func(c byte) byte {
		if 'A' <= c && c <= 'Z' {
			return c + 'a' - 'A'
		}
		return c
	}
	if len(a) != len(b) || len(a) < 3 || string(a[len(a)-2:]) != string(b[len(b)-2:]) {
		return false
	}
	for i := range a {
		if lower(a[i]) != lower(b[i]) {
			return false
		}
	}
	return true
}
