package udptransport

import (
	"encoding/binary"
	"testing"

	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/resolver"
)

// FuzzFrontDoor sends arbitrary datagrams through the packet path of two
// listener workers, one answered by floodAuthority and one by a resolver
// shard recursing to it. Neither may panic, and every reply carries the
// query's ID and is a FORMERR or answers the question it was asked: a query
// of one question, and the reply's question has its labels, equal up to
// ASCII case, and its type, as a stub that matches replies to queries (RFC
// 5452 §9.1) requires. The shard's has its class too; the authority's class
// is not compared, since the authority answers every class as IN, which its
// golden rd-clear-class-ch records.
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
		chaos(query(6, "www", "bench", "test")),
		query(7, "alias", "bench", "test"),
	} {
		f.Add(seed)
	}
	auth := floodAuthority(f)
	c, err := resolver.NewCluster(auth, resolver.WithServers(1))
	if err != nil {
		f.Fatal(err)
	}
	workers := []struct {
		w     *listenerWorker
		class bool // the reply's question keeps the query's class
	}{
		{&listenerWorker{srv: &Server{wire: auth}, slots: make([]pktBuf, 1)}, false},
		{&listenerWorker{srv: &Server{wire: c.Shard(0)}, slots: make([]pktBuf, 1)}, true},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, wk := range workers {
			b := &wk.w.slots[0]
			b.in = data
			wk.w.process(b)
			if !b.send {
				continue
			}
			reply := b.out
			if len(reply) < dnsHeaderLen || reply[0] != data[0] || reply[1] != data[1] {
				t.Fatalf("reply %x to query %x: not under the query's ID", reply, data)
			}
			if dnsmsg.RCode(reply[3]&0x0F) == dnsmsg.RCodeFormErr {
				continue
			}
			asked, ok := firstQuestion(data)
			if !ok || binary.BigEndian.Uint16(data[4:]) != 1 {
				t.Fatalf("reply %x to a query without one readable question: %x", reply, data)
			}
			got, ok := firstQuestion(reply)
			if !ok || binary.BigEndian.Uint16(reply[4:]) != 1 || !sameQuestion(got, asked, wk.class) {
				t.Fatalf("reply's question %q, the query's %q (class compared: %v)", got, asked, wk.class)
			}
		}
	})
}

// chaos rewrites a one-question query's class to CH.
func chaos(query []byte) []byte {
	query[len(query)-1] = 3
	return query
}

// firstQuestion returns the first question of msg: the name's labels,
// uncompressed, then the type and the class. ok is false when msg holds no
// question that can be read.
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
			return append(append(q, 0), msg[end:end+4]...), true
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
// once A-Z in their names are lowered, their classes compared only when
// class is set.
func sameQuestion(a, b []byte, class bool) bool {
	n := 4 // the type and the class
	if !class {
		a, b, n = a[:len(a)-2], b[:len(b)-2], 2
	}
	lower := func(c byte) byte {
		if 'A' <= c && c <= 'Z' {
			return c + 'a' - 'A'
		}
		return c
	}
	if len(a) != len(b) || len(a) < n+1 || string(a[len(a)-n:]) != string(b[len(b)-n:]) {
		return false
	}
	for i := range a[:len(a)-n] {
		if lower(a[i]) != lower(b[i]) {
			return false
		}
	}
	return true
}
