package udptransport

import (
	"errors"
	"testing"
	"time"

	"dnsnoise/internal/authority"
	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/resolver"
)

func testAuthority(t *testing.T) *authority.Server {
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

func startServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	srv, err := Serve(testAuthority(t), "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	client, err := NewClient(srv.Addr(), WithTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return srv, client
}

func TestQueryOverUDP(t *testing.T) {
	_, client := startServer(t)
	q := dnsmsg.NewQuery(0x4242, "www.udp.test", dnsmsg.TypeA)
	wire, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	respWire, err := client.HandleWire(wire)
	if err != nil {
		t.Fatalf("HandleWire: %v", err)
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
	_, client := startServer(t)
	q := dnsmsg.NewQuery(7, "missing.udp.test", dnsmsg.TypeA)
	wire, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	respWire, err := client.HandleWire(wire)
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

func TestResolverClusterOverUDP(t *testing.T) {
	// The full stack: resolver cluster recursing over real UDP packets.
	_, client := startServer(t)
	cluster, err := resolver.NewCluster(client, resolver.WithServers(1))
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2011, 12, 1, 0, 0, 0, 0, time.UTC)
	r, err := cluster.Resolve(resolver.Query{Time: t0, ClientID: 1, Name: "www.udp.test", Type: dnsmsg.TypeA})
	if err != nil {
		t.Fatalf("Resolve over UDP: %v", err)
	}
	if r.FromCache || len(r.Answers) != 1 {
		t.Fatalf("response = %+v", r)
	}
	r, err = cluster.Resolve(resolver.Query{Time: t0.Add(time.Second), ClientID: 1, Name: "www.udp.test", Type: dnsmsg.TypeA})
	if err != nil {
		t.Fatal(err)
	}
	if !r.FromCache {
		t.Error("second resolve should hit the cache, not the network")
	}
}

func TestClientTimeout(t *testing.T) {
	// A client pointed at a UDP port where nothing listens times out.
	client, err := NewClient("127.0.0.1:1", WithTimeout(50*time.Millisecond), WithRetries(1))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	q := dnsmsg.NewQuery(1, "www.udp.test", dnsmsg.TypeA)
	wire, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = client.HandleWire(wire)
	if err == nil {
		t.Fatal("expected timeout error")
	}
	// ICMP port-unreachable may surface as a socket error instead of a
	// deadline; both are failures, only the deadline path must also work.
	if errors.Is(err, ErrTimeout) && time.Since(start) < 90*time.Millisecond {
		t.Errorf("timed out too fast for 2 x 50ms attempts: %v", time.Since(start))
	}
}

func TestServerSurvivesGarbage(t *testing.T) {
	_, client := startServer(t)
	// Garbage produces a FORMERR (header readable) or is dropped; either
	// way the server must keep answering real queries afterwards.
	if _, err := client.HandleWire([]byte{0, 9, 1, 2, 3}); err != nil && !errors.Is(err, ErrTimeout) {
		t.Fatalf("garbage query: %v", err)
	}
	q := dnsmsg.NewQuery(3, "www.udp.test", dnsmsg.TypeA)
	wire, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.HandleWire(wire); err != nil {
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
	if _, err := NewClient("bad::addr::foo"); err == nil {
		t.Error("NewClient(bad addr) should fail")
	}
}

func TestClientRejectsShortQuery(t *testing.T) {
	_, client := startServer(t)
	if _, err := client.HandleWire([]byte{1}); err == nil {
		t.Error("short query should fail before hitting the network")
	}
}

// TestClientAppendHandleWire: the client offers the append contract, so a
// resolver recursing over the socket reuses one response buffer; the
// response lands after whatever dst holds and equals HandleWire's.
func TestClientAppendHandleWire(t *testing.T) {
	_, client := startServer(t)
	var _ dnsmsg.WireHandler = client
	if wh := dnsmsg.AsWireHandler(client); wh != dnsmsg.WireHandler(client) {
		t.Errorf("AsWireHandler wrapped a client that already appends: %T", wh)
	}
	wire, err := dnsmsg.NewQuery(0x4343, "www.udp.test", dnsmsg.TypeA).Encode()
	if err != nil {
		t.Fatal(err)
	}
	want, err := client.HandleWire(wire)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 512)
	for i := 0; i < 3; i++ {
		got, err := client.AppendHandleWire(append(buf[:0], "prefix"...), wire)
		if err != nil {
			t.Fatalf("AppendHandleWire: %v", err)
		}
		if string(got) != "prefix"+string(want) {
			t.Fatalf("round %d: appended response = %x, want prefix + %x", i, got, want)
		}
		if &got[0] != &buf[:1][0] {
			t.Errorf("round %d: response did not land in the caller's buffer", i)
		}
	}
	if _, err := client.AppendHandleWire(buf[:0], []byte{1}); !errors.Is(err, dnsmsg.ErrTruncatedMessage) {
		t.Errorf("short query err = %v, want ErrTruncatedMessage", err)
	}
}
