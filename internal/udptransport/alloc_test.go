package udptransport

import (
	"testing"

	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/qlog"
	"dnsnoise/internal/telemetry"
)

// echoWireHandler is a zero-allocation WireHandler: the response is the
// query appended into the caller's buffer with the QR bit set. It isolates
// the transport's own packet path from handler allocations, exactly like
// the resolve-path guards isolate the cache-hit path from upstream cost.
type echoWireHandler struct{}

func (echoWireHandler) AppendHandleWire(dst, query []byte) ([]byte, error) {
	dst = append(dst, query...)
	dst[2] |= 0x80
	return dst, nil
}

// newProcessHarness builds a listener worker detached from any socket,
// with one slot preloaded with wire: exactly the state the serve loop
// hands to process for each received datagram.
func newProcessHarness(t *testing.T, h dnsmsg.WireHandler, wire []byte) *listenerWorker {
	t.Helper()
	w := &listenerWorker{
		srv:   &Server{wire: h},
		slots: make([]pktBuf, 1),
	}
	rx := make([]byte, maxPacket)
	copy(rx, wire)
	w.slots[0].in = rx[:len(wire)]
	return w
}

// TestServePacketPathZeroAlloc pins the transport's per-packet work —
// counters, malformed check, EDNS budget scan, handler dispatch through
// the caller-owned response buffer, truncation — at zero heap allocations,
// the contract that lets the front door run at wire speed without GC
// pressure. (The syscall layer is preallocated separately; the end-to-end
// gate is TestServeFloodZeroAlloc in flood_test.go.)
func TestServePacketPathZeroAlloc(t *testing.T) {
	wire, err := dnsmsg.NewQuery(0x1234, "host.zone.example", dnsmsg.TypeA).Encode()
	if err != nil {
		t.Fatal(err)
	}
	w := newProcessHarness(t, echoWireHandler{}, wire)
	b := &w.slots[0]
	w.process(b) // warm: grows the response buffer once
	if !b.send || len(b.out) != len(wire) {
		t.Fatalf("echo process: send=%v len=%d want %d", b.send, len(b.out), len(wire))
	}
	if allocs := testing.AllocsPerRun(1000, func() { w.process(b) }); allocs != 0 {
		t.Errorf("serve packet path allocates %.1f allocs/op, want 0", allocs)
	}
	// With a registry attached, one packet in 64 reads the clock and
	// observes the latency histogram: still nothing on the heap.
	w.srv.latAll = telemetry.NewRegistry().Histogram("udp_handle_latency_ns", "test")
	if allocs := testing.AllocsPerRun(1000, func() { w.process(b) }); allocs != 0 {
		t.Errorf("timed serve packet path allocates %.1f allocs/op, want 0", allocs)
	}
	if w.srv.latAll.Snapshot().Count == 0 {
		t.Error("no packet was timed")
	}
}

// TestServePacketPathZeroAllocTruncation covers the oversize branch: the
// budget scan plus in-place truncation must stay allocation-free too.
func TestServePacketPathZeroAllocTruncation(t *testing.T) {
	wire, err := dnsmsg.NewQuery(0x4321, "host.zone.example", dnsmsg.TypeA).Encode()
	if err != nil {
		t.Fatal(err)
	}
	// A handler whose response always exceeds the classic 512-byte budget.
	big := wireHandlerFunc(func(dst, query []byte) ([]byte, error) {
		dst = append(dst, query...)
		dst[2] |= 0x80
		for len(dst) <= minUDPPayload {
			dst = append(dst, 0)
		}
		return dst, nil
	})
	w := newProcessHarness(t, big, wire)
	b := &w.slots[0]
	w.process(b)
	if !b.send || len(b.out) > minUDPPayload || b.out[2]&0x02 == 0 {
		t.Fatalf("truncation process: send=%v len=%d tc=%v", b.send, len(b.out), b.out[2]&0x02 != 0)
	}
	before := w.stats.truncated.Load()
	if allocs := testing.AllocsPerRun(1000, func() { w.process(b) }); allocs != 0 {
		t.Errorf("truncating packet path allocates %.1f allocs/op, want 0", allocs)
	}
	if w.stats.truncated.Load() == before {
		t.Error("truncation counter did not advance")
	}
}

// TestServePacketPathZeroAllocMalformed: runts exit before the handler and
// allocate nothing.
func TestServePacketPathZeroAllocMalformed(t *testing.T) {
	w := newProcessHarness(t, echoWireHandler{}, []byte{1, 2, 3})
	b := &w.slots[0]
	if allocs := testing.AllocsPerRun(1000, func() { w.process(b) }); allocs != 0 {
		t.Errorf("malformed drop allocates %.1f allocs/op, want 0", allocs)
	}
	if w.stats.malformed.Load() == 0 {
		t.Error("malformed counter did not advance")
	}
}

// TestServePacketPathZeroAllocQlogMiss: with a query log attached, the
// sampling counter on unsampled packets is the only added work — still
// zero allocations (the sampled path decodes and is priced separately).
func TestServePacketPathZeroAllocQlogMiss(t *testing.T) {
	wire, err := dnsmsg.NewQuery(0x2222, "host.zone.example", dnsmsg.TypeA).Encode()
	if err != nil {
		t.Fatal(err)
	}
	w := newProcessHarness(t, echoWireHandler{}, wire)
	l := qlog.New(qlog.Config{Sample: 1 << 30}) // effectively never samples
	l.AddSink(qlog.NewMemorySink(16))
	w.qrec = l.NewRecorder(0)
	b := &w.slots[0]
	w.process(b)
	if allocs := testing.AllocsPerRun(1000, func() { w.process(b) }); allocs != 0 {
		t.Errorf("qlog-miss packet path allocates %.1f allocs/op, want 0", allocs)
	}
}

// wireHandlerFunc adapts a function to the append contract.
type wireHandlerFunc func(dst, query []byte) ([]byte, error)

func (f wireHandlerFunc) AppendHandleWire(dst, query []byte) ([]byte, error) {
	return f(dst, query)
}
