package udptransport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"syscall"
	"testing"
	"time"

	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/telemetry"
)

// TestTCPExchange speaks the framed protocol straight at the fallback
// listener: length-prefixed query in, length-prefixed response out, and a
// second query on the same connection to prove it stays open.
func TestTCPExchange(t *testing.T) {
	srv, err := Serve(testAuthority(t), "", WithTCP())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i, name := range []string{"www.udp.test", "missing.udp.test"} {
		wire, err := dnsmsg.NewQuery(uint16(40+i), name, dnsmsg.TypeA).Encode()
		if err != nil {
			t.Fatal(err)
		}
		respWire, err := roundTrip(conn, wire, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := dnsmsg.Decode(respWire)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Header.ID != uint16(40+i) {
			t.Errorf("query %d: response ID %#x, want %#x", i, resp.Header.ID, 40+i)
		}
	}
}

// TestTCPHeldPortFails: a port the caller names whose TCP side another
// socket holds fails at once with EADDRINUSE — only an ephemeral port is
// drawn again — and leaves no UDP socket bound behind it.
func TestTCPHeldPortFails(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	addr := held.Addr().String()
	srv, err := Serve(testAuthority(t), addr, WithTCP())
	if err == nil {
		srv.Close()
		t.Fatalf("Serve on %s, whose TCP side is held, succeeded", addr)
	}
	if !errors.Is(err, syscall.EADDRINUSE) {
		t.Fatalf("Serve on %s: %v, want EADDRINUSE", addr, err)
	}
	laddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		t.Fatalf("the failed Serve left %s bound: %v", addr, err)
	}
	conn.Close()
}

// TestTCPFallbackRetriesTruncated is the server half of the TC=1 contract:
// a response too big for UDP comes back truncated, and the same query over
// TCP gets the whole answer.
func TestTCPFallbackRetriesTruncated(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv, err := Serve(bigResponder{records: 40}, "", WithTCP(), WithServerMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	wire, err := dnsmsg.NewQuery(0x90, "big.udp.test", dnsmsg.TypeTXT).Encode()
	if err != nil {
		t.Fatal(err)
	}
	respWire, err := exchange("udp", srv.Addr(), wire)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := dnsmsg.Decode(respWire); err != nil || !resp.Header.Truncated {
		t.Fatalf("over UDP: err=%v, want a decodable TC=1 response", err)
	}

	respWire, err = exchange("tcp", srv.Addr(), wire)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := dnsmsg.Decode(respWire)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Truncated {
		t.Error("TCP response has TC=1")
	}
	if len(resp.Answers) != 40 {
		t.Errorf("TCP response has %d answers, want 40", len(resp.Answers))
	}
	snap := reg.Snapshot()
	if got := snap.Counter("tcp_connections_total"); got != 1 {
		t.Errorf("tcp_connections_total = %d, want 1", got)
	}
	if got := snap.Counter("tcp_queries_total"); got != 1 {
		t.Errorf("tcp_queries_total = %d, want 1", got)
	}
}

// expectHangUp reads from conn and fails unless the server closes it
// within wait. Unread bytes may turn the FIN into a RST, so any
// non-timeout error counts as the hang-up.
func expectHangUp(t *testing.T, conn net.Conn, wait time.Duration) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(wait))
	var b [1]byte
	_, err := conn.Read(b[:])
	if err == nil {
		t.Fatal("server answered instead of hanging up")
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("server kept the connection open: %v", err)
	}
}

// TestTCPRuntFrameHangsUp: a frame shorter than a DNS header closes the
// connection without an answer, like the UDP malformed gate.
func TestTCPRuntFrameHangsUp(t *testing.T) {
	srv, err := Serve(testAuthority(t), "", WithTCP())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0, 5, 1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	expectHangUp(t, conn, 2*time.Second)
}

// TestTCPConnectionCap: with tcpMaxConns connections open, the next one is
// closed at accept, counted, while the open ones keep being served.
func TestTCPConnectionCap(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv, err := Serve(testAuthority(t), "", WithTCP(), WithServerMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	wire, err := dnsmsg.NewQuery(1, "www.udp.test", dnsmsg.TypeA).Encode()
	if err != nil {
		t.Fatal(err)
	}
	var open []net.Conn
	defer func() {
		for _, c := range open {
			c.Close()
		}
	}()
	for i := 0; i < tcpMaxConns; i++ {
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		open = append(open, c)
		// An answer proves the server holds the connection.
		if _, err := roundTrip(c, wire, 2*time.Second); err != nil {
			t.Fatalf("connection %d: %v", i, err)
		}
	}
	over, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer over.Close()
	expectHangUp(t, over, time.Second)
	if got := reg.Snapshot().Counter("tcp_refused_total"); got != 1 {
		t.Errorf("tcp_refused_total = %d, want 1", got)
	}
	if _, err := roundTrip(open[0], wire, time.Second); err != nil {
		t.Errorf("a connection under the cap stopped answering: %v", err)
	}
}

// TestTCPQueryBudget: a connection is answered tcpMaxQueries times, then
// closed when the next query arrives.
func TestTCPQueryBudget(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv, err := Serve(testAuthority(t), "", WithTCP(), WithServerMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wire, err := dnsmsg.NewQuery(1, "www.udp.test", dnsmsg.TypeA).Encode()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tcpMaxQueries; i++ {
		if _, err := roundTrip(conn, wire, 2*time.Second); err != nil {
			t.Fatalf("query %d of the budget: %v", i, err)
		}
	}
	if _, err := conn.Write(append([]byte{0, byte(len(wire))}, wire...)); err != nil {
		t.Fatal(err)
	}
	expectHangUp(t, conn, time.Second)
	snap := reg.Snapshot()
	if got := snap.Counter("tcp_queries_total"); got != tcpMaxQueries {
		t.Errorf("tcp_queries_total = %d, want %d", got, tcpMaxQueries)
	}
	if got := snap.Counter("tcp_refused_total"); got != 1 {
		t.Errorf("tcp_refused_total = %d, want 1", got)
	}
}

// TestTCPCloseCutsOpenConnections: Close must not wait out the idle
// deadline on parked connections, and leaves no goroutine behind.
func TestTCPCloseCutsOpenConnections(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv, err := Serve(testAuthority(t), "", WithTCP())
	if err != nil {
		t.Fatal(err)
	}
	wire, err := dnsmsg.NewQuery(1, "www.udp.test", dnsmsg.TypeA).Encode()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// An answer proves the connection is registered and parked.
		if _, err := roundTrip(conn, wire, 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Close hung on idle TCP connections")
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before Serve", runtime.NumGoroutine(), baseline)
		}
	}
}

// splitConn is one end of a TCP stand-in built from two pipes: reads come
// from the request pipe, writes go to the reply pipe, so the peer can end
// its input (close the request pipe) and still read every reply.
type splitConn struct {
	net.Conn          // the request pipe's server end
	out      net.Conn // the reply pipe's server end
}

func (c splitConn) Write(p []byte) (int, error) { return c.out.Write(p) }

func (c splitConn) Close() error {
	c.out.Close()
	return c.Conn.Close()
}

// FuzzTCPFrames feeds arbitrary bytes to one TCP connection's serve loop
// over in-memory pipes. It must not panic and must return once the input
// ends; every reply is a well-framed DNS response to the frame at the same
// position in the input, so a runt or unanswerable frame ends the replies:
// the connection closes there. testdata/fuzz holds the inputs it has failed
// on.
func FuzzTCPFrames(f *testing.F) {
	frame := func(msg []byte) []byte {
		return append(binary.BigEndian.AppendUint16(nil, uint16(len(msg))), msg...)
	}
	q := func(id uint16, name string) []byte {
		wire, err := dnsmsg.NewQuery(id, name, dnsmsg.TypeA).Encode()
		if err != nil {
			f.Fatal(err)
		}
		return wire
	}
	www, nx := q(1, "www.udp.test"), q(2, "missing.udp.test")
	for _, seed := range [][]byte{
		frame(www),
		append(frame(www), frame(nx)...),
		append(frame([]byte{1, 2, 3, 4, 5}), frame(www)...), // runt, then a query
		append(frame(make([]byte, 12)), frame(www)...),      // header only
		frame(www)[:len(www)-3],                             // cut mid-frame
		{0xff, 0xff, 0, 1},                                  // oversize length
		{0},                                                 // half a length
		append(frame(www), bytes.Repeat([]byte{0xc0}, 40)...),
	} {
		f.Add(seed)
	}
	srv := &Server{wire: testAuthority(f), tcp: &tcpState{conns: map[net.Conn]struct{}{}}}
	f.Fuzz(func(t *testing.T, data []byte) {
		reqPeer, reqEnd := net.Pipe()
		replyEnd, replyPeer := net.Pipe()
		srv.wg.Add(1)
		go srv.serveTCPConn(splitConn{Conn: reqEnd, out: replyEnd})
		go func() {
			reqPeer.Write(data) // fails once the server hangs up early
			reqPeer.Close()
		}()
		replies, err := io.ReadAll(replyPeer)
		if err != nil {
			t.Fatal(err)
		}
		srv.wg.Wait()

		for i := 0; len(replies) > 0; i++ {
			if len(replies) < 2 || len(replies) < 2+int(binary.BigEndian.Uint16(replies)) {
				t.Fatalf("reply %d is cut short: %x", i, replies)
			}
			n := int(binary.BigEndian.Uint16(replies))
			resp := replies[2 : 2+n]
			replies = replies[2+n:]
			if len(data) < 2 {
				t.Fatalf("reply %d without a query frame", i)
			}
			qn := int(binary.BigEndian.Uint16(data))
			if qn < dnsHeaderLen || len(data) < 2+qn {
				t.Fatalf("reply %d to a runt or cut frame of %d bytes", i, qn)
			}
			query := data[2 : 2+qn]
			data = data[2+qn:]
			if len(resp) < dnsHeaderLen || resp[2]&0x80 == 0 || !bytes.Equal(resp[:2], query[:2]) {
				t.Fatalf("reply %d is not a response to its frame: %x", i, resp)
			}
			if _, err := dnsmsg.Decode(resp); err != nil {
				t.Fatalf("reply %d does not decode: %v", i, err)
			}
		}
	})
}
