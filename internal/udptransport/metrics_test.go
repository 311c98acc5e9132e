package udptransport

import (
	"errors"
	"net"
	"testing"
	"time"

	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/telemetry"
)

// strictHandler refuses sub-header datagrams (the in-process authority
// would answer them FORMERR), so the test can exercise the drop counter.
type strictHandler struct{ inner dnsmsg.WireHandler }

func (h strictHandler) AppendHandleWire(dst, q []byte) ([]byte, error) {
	if len(q) < dnsHeaderLen {
		return dst, errors.New("garbage query")
	}
	return h.inner.AppendHandleWire(dst, q)
}

// TestServerMetrics drives one good query and one garbage datagram through
// an instrumented server and checks every packet counter.
func TestServerMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv, err := Serve(strictHandler{testAuthority(t)}, "", WithServerMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	q := dnsmsg.NewQuery(0x7777, "www.udp.test", dnsmsg.TypeA)
	wire, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exchange("udp", srv.Addr(), wire); err != nil {
		t.Fatal(err)
	}

	// A 4-byte datagram is too short to be a DNS query: counted malformed
	// and dropped, never answered.
	conn, err := net.Dial("udp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0xde, 0xad, 0xbe, 0xef}); err != nil {
		t.Fatal(err)
	}

	// The garbage packet is processed asynchronously; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	var snap *telemetry.Snapshot
	for {
		snap = reg.Snapshot()
		if snap.Counter("udp_dropped_total") == 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	if got := snap.Counter("udp_rx_packets_total"); got != 2 {
		t.Errorf("udp_rx_packets_total = %d, want 2", got)
	}
	if got := snap.Counter("udp_rx_bytes_total"); got < uint64(len(wire))+4 {
		t.Errorf("udp_rx_bytes_total = %d, want >= %d", got, len(wire)+4)
	}
	if got := snap.Counter("udp_tx_packets_total"); got != 1 {
		t.Errorf("udp_tx_packets_total = %d, want 1", got)
	}
	if got := snap.Counter("udp_tx_bytes_total"); got == 0 {
		t.Error("udp_tx_bytes_total = 0, want > 0")
	}
	if got := snap.Counter("udp_malformed_total"); got != 1 {
		t.Errorf("udp_malformed_total = %d, want 1", got)
	}
	if got := snap.Counter("udp_dropped_total"); got != 1 {
		t.Errorf("udp_dropped_total = %d, want 1", got)
	}
	if got := snap.Counter("udp_truncated_total"); got != 0 {
		t.Errorf("udp_truncated_total = %d, want 0", got)
	}
}

// TestHandleLatencyWithoutQueryLog: with a registry and no query log, the
// front door still times one packet in 64, so udp_handle_latency_ns (and
// the p99 alert over it) has data on a server run without -qlog.
func TestHandleLatencyWithoutQueryLog(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv, err := Serve(testAuthority(t), "", WithServerMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	wire, err := dnsmsg.NewQuery(1, "www.udp.test", dnsmsg.TypeA).Encode()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= latSampleMask; i++ {
		if _, err := exchange("udp", srv.Addr(), wire); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Snapshot().Histograms["udp_handle_latency_ns"].Count; got < 1 {
		t.Errorf("udp_handle_latency_ns count = %d after %d queries, want >= 1", got, latSampleMask+1)
	}
}
