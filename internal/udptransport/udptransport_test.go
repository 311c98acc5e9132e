package udptransport

import (
	"encoding/binary"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"dnsnoise/internal/authority"
	"dnsnoise/internal/dnsmsg"
)

func testAuthority(t testing.TB) *authority.Server {
	t.Helper()
	srv := authority.NewServer()
	z, err := authority.NewZone("udp.test")
	if err != nil {
		t.Fatal(err)
	}
	rr := dnsmsg.RR{Name: "www.udp.test", Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN, TTL: 300, RData: dnsmsg.IPv4(198, 18, 0, 7)}
	if err := z.Add(rr); err != nil {
		t.Fatal(err)
	}
	if err := srv.AddZone(z); err != nil {
		t.Fatal(err)
	}
	return srv
}

// startServer serves the test authority on an ephemeral loopback port.
func startServer(t *testing.T) *Server {
	t.Helper()
	srv, err := Serve(testAuthority(t), "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// exchange sends query to addr over a fresh connection and returns the
// reply, giving up after a second.
func exchange(network, addr string, query []byte) ([]byte, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	return roundTrip(conn, query, time.Second)
}

// roundTrip writes query on conn and reads one reply: a datagram over UDP,
// an RFC 1035 length-prefixed message over a stream.
func roundTrip(conn net.Conn, query []byte, wait time.Duration) ([]byte, error) {
	conn.SetDeadline(time.Now().Add(wait))
	if _, udp := conn.(*net.UDPConn); udp {
		if _, err := conn.Write(query); err != nil {
			return nil, err
		}
		buf := make([]byte, maxPacket)
		n, err := conn.Read(buf)
		return buf[:n], err
	}
	if _, err := conn.Write(append(binary.BigEndian.AppendUint16(nil, uint16(len(query))), query...)); err != nil {
		return nil, err
	}
	var hdr [2]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return nil, err
	}
	resp := make([]byte, binary.BigEndian.Uint16(hdr[:]))
	_, err := io.ReadFull(conn, resp)
	return resp, err
}

func TestQueryOverUDP(t *testing.T) {
	srv := startServer(t)
	q := dnsmsg.NewQuery(0x4242, "www.udp.test", dnsmsg.TypeA)
	wire, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	respWire, err := exchange("udp", srv.Addr(), wire)
	if err != nil {
		t.Fatalf("exchange: %v", err)
	}
	resp, err := dnsmsg.Decode(respWire)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.ID != 0x4242 {
		t.Errorf("ID = %#x", resp.Header.ID)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].RData != dnsmsg.IPv4(198, 18, 0, 7) {
		t.Errorf("answers = %+v", resp.Answers)
	}
}

func TestNXDomainOverUDP(t *testing.T) {
	srv := startServer(t)
	q := dnsmsg.NewQuery(7, "missing.udp.test", dnsmsg.TypeA)
	wire, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	respWire, err := exchange("udp", srv.Addr(), wire)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := dnsmsg.Decode(respWire)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnsmsg.RCodeNXDomain {
		t.Errorf("RCode = %v", resp.Header.RCode)
	}
}

func TestServerSurvivesGarbage(t *testing.T) {
	srv := startServer(t)
	conn, err := net.Dial("udp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Garbage is dropped unanswered; the server must keep answering real
	// queries afterwards.
	if _, err := roundTrip(conn, []byte{0, 9, 1, 2, 3}, 100*time.Millisecond); !os.IsTimeout(err) {
		t.Fatalf("garbage query: %v, want no answer", err)
	}
	q := dnsmsg.NewQuery(3, "www.udp.test", dnsmsg.TypeA)
	wire, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := roundTrip(conn, wire, time.Second); err != nil {
		t.Fatalf("server died after garbage: %v", err)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, err := Serve(testAuthority(t), "")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestServeValidation(t *testing.T) {
	if _, err := Serve(nil, ""); err == nil {
		t.Error("Serve(nil) should fail")
	}
	if _, err := Serve(testAuthority(t), "not-an-addr:xx"); err == nil {
		t.Error("Serve(bad addr) should fail")
	}
}
