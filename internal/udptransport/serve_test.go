package udptransport

import (
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnsnoise/internal/dnsmsg"
)

// recordingHandler counts how many queries actually reach the wrapped
// handler.
type recordingHandler struct {
	inner dnsmsg.WireHandler
	calls atomic.Uint64
}

func (r *recordingHandler) AppendHandleWire(dst, query []byte) ([]byte, error) {
	r.calls.Add(1)
	return r.inner.AppendHandleWire(dst, query)
}

// expectedListeners is what Serve(WithListeners(n)) actually opens on this
// platform.
func expectedListeners(n int) int {
	if reuseportAvailable {
		return n
	}
	return 1
}

func TestConcurrentListenersAndClients(t *testing.T) {
	// The multi-core front door under -race: several SO_REUSEPORT listener
	// workers (where available) answering several concurrent clients, each
	// with its own socket. Every response must match its query's ID and
	// carry the right answer regardless of which listener served it.
	srv, err := Serve(testAuthority(t), "", WithListeners(4))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if got, want := srv.Listeners(), expectedListeners(4); got != want {
		t.Fatalf("Listeners() = %d, want %d", got, want)
	}
	const clients, queries = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			conn, err := net.Dial("udp", srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			for i := 0; i < queries; i++ {
				qid := uint16(id*queries + i + 1)
				q := dnsmsg.NewQuery(qid, "www.udp.test", dnsmsg.TypeA)
				wire, err := q.Encode()
				if err != nil {
					errs <- err
					return
				}
				respWire, err := roundTrip(conn, wire, 2*time.Second)
				if err != nil {
					errs <- fmt.Errorf("client %d query %d: %w", id, i, err)
					return
				}
				resp, err := dnsmsg.Decode(respWire)
				if err != nil {
					errs <- err
					return
				}
				if resp.Header.ID != qid {
					errs <- fmt.Errorf("client %d: ID = %#x, want %#x", id, resp.Header.ID, qid)
					return
				}
				if len(resp.Answers) != 1 || resp.Answers[0].RData != dnsmsg.IPv4(198, 18, 0, 7) {
					errs <- fmt.Errorf("client %d: answers = %+v", id, resp.Answers)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestListenersSharePort(t *testing.T) {
	srv, err := Serve(testAuthority(t), "", WithListeners(3))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i, c := range srv.conns {
		if got := c.LocalAddr().String(); got != srv.Addr() {
			t.Errorf("listener %d bound %s, want %s", i, got, srv.Addr())
		}
	}
}

func TestBatchOneUsesSinglePacketPath(t *testing.T) {
	// The portable single-packet path (one datagram per syscall) is what
	// builds without recvmmsg serve through. Run it on every platform: a
	// one-listener server whose worker's io is swapped for a singleIO
	// before its loop starts.
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{wire: testAuthority(t), conns: []*net.UDPConn{conn}}
	w := newListenerWorker(srv, conn, 0)
	w.io = newSingleIO(conn, w.slots, make([]byte, maxPacket))
	srv.workers = []*listenerWorker{w}
	srv.wg.Add(1)
	go w.loop()
	defer srv.Close()
	wire, err := dnsmsg.NewQuery(9, "www.udp.test", dnsmsg.TypeA).Encode()
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
	if resp.Header.ID != 9 || len(resp.Answers) != 1 || resp.Answers[0].RData != dnsmsg.IPv4(198, 18, 0, 7) {
		t.Fatalf("response = %+v", resp)
	}
	// The loop counts a datagram after its send returns, which may be after
	// the reply arrived: read the count once the loop has stopped.
	srv.Close()
	if got := w.stats.txPackets.Load(); got != 1 {
		t.Errorf("txPackets = %d, want 1", got)
	}
}

func TestMalformedDatagramDroppedBeforeHandler(t *testing.T) {
	// A datagram shorter than a DNS header must never reach the handler:
	// the old code counted it malformed but handed it over anyway, earning
	// garbage a FORMERR response. Now it is dropped silently.
	seen := &recordingHandler{inner: testAuthority(t)}
	srv, err := Serve(seen, "")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("udp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := roundTrip(conn, []byte{0, 9, 1, 2, 3}, 100*time.Millisecond); !os.IsTimeout(err) {
		t.Fatalf("runt datagram should be dropped (timeout), got %v", err)
	}
	if n := seen.calls.Load(); n != 0 {
		t.Errorf("handler saw %d calls for a runt datagram, want 0", n)
	}
	// The server keeps serving real queries afterwards.
	wire, err := dnsmsg.NewQuery(3, "www.udp.test", dnsmsg.TypeA).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := roundTrip(conn, wire, time.Second); err != nil {
		t.Fatalf("server died after runt: %v", err)
	}
}

// bigResponder answers every query with n TXT records, producing responses
// far beyond the classic 512-byte budget.
type bigResponder struct{ records int }

func (h bigResponder) AppendHandleWire(dst, query []byte) ([]byte, error) {
	msg, err := dnsmsg.Decode(query)
	if err != nil || len(msg.Questions) != 1 {
		return dst, err
	}
	resp := &dnsmsg.Message{
		Header: dnsmsg.Header{ID: msg.Header.ID, Response: true,
			RecursionDesired: msg.Header.RecursionDesired, RecursionAvailable: true},
		Questions: msg.Questions,
	}
	for i := 0; i < h.records; i++ {
		resp.Answers = append(resp.Answers, dnsmsg.RR{
			Name: msg.Questions[0].Name, Type: dnsmsg.TypeTXT, Class: dnsmsg.ClassIN,
			TTL: 60, RData: dnsmsg.Text(fmt.Sprintf("record-%03d-%s", i, "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")),
		})
	}
	return resp.AppendEncode(dst)
}

// appendOPT adds an EDNS0 OPT pseudo-RR advertising the given UDP payload
// size to an encoded query.
func appendOPT(wire []byte, size uint16) []byte {
	wire[11]++ // ARCOUNT
	return append(wire,
		0x00,       // root name
		0x00, 0x29, // TYPE OPT
		byte(size>>8), byte(size), // CLASS = payload size
		0, 0, 0, 0, // TTL (extended rcode/flags)
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

func TestOversizeResponseTruncated(t *testing.T) {
	srv, err := Serve(bigResponder{records: 40}, "")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	wire, err := dnsmsg.NewQuery(0x77, "big.udp.test", dnsmsg.TypeTXT).Encode()
	if err != nil {
		t.Fatal(err)
	}
	respWire, err := exchange("udp", srv.Addr(), wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(respWire) > 512 {
		t.Fatalf("non-EDNS response is %d bytes, want <= 512", len(respWire))
	}
	resp, err := dnsmsg.Decode(respWire)
	if err != nil {
		t.Fatalf("truncated response must stay decodable: %v", err)
	}
	if !resp.Header.Truncated {
		t.Error("TC bit not set on truncated response")
	}
	if len(resp.Answers) != 0 || len(resp.Authority) != 0 || len(resp.Additional) != 0 {
		t.Errorf("truncated response carries records: %d/%d/%d",
			len(resp.Answers), len(resp.Authority), len(resp.Additional))
	}
	if len(resp.Questions) != 1 || resp.Questions[0].Name != "big.udp.test" {
		t.Errorf("question not preserved: %+v", resp.Questions)
	}
}

func TestEDNSBudgetRaisesTruncationPoint(t *testing.T) {
	srv, err := Serve(bigResponder{records: 40}, "")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The full response is ~2KB; an EDNS bufsize of 4096 must let it
	// through whole, like `dig +bufsize=4096`.
	wire, err := dnsmsg.NewQuery(0x78, "big.udp.test", dnsmsg.TypeTXT).Encode()
	if err != nil {
		t.Fatal(err)
	}
	respWire, err := exchange("udp", srv.Addr(), appendOPT(wire, 4096))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := dnsmsg.Decode(respWire)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Truncated {
		t.Error("TC set despite sufficient EDNS budget")
	}
	if len(resp.Answers) != 40 {
		t.Errorf("answers = %d, want 40", len(resp.Answers))
	}

	// A bufsize below the response size still truncates at that budget.
	wire2, err := dnsmsg.NewQuery(0x79, "big.udp.test", dnsmsg.TypeTXT).Encode()
	if err != nil {
		t.Fatal(err)
	}
	respWire2, err := exchange("udp", srv.Addr(), appendOPT(wire2, 1024))
	if err != nil {
		t.Fatal(err)
	}
	if len(respWire2) > 1024 {
		t.Fatalf("EDNS-1024 response is %d bytes, want <= 1024", len(respWire2))
	}
	resp2, err := dnsmsg.Decode(respWire2)
	if err != nil {
		t.Fatal(err)
	}
	if !resp2.Header.Truncated {
		t.Error("TC not set when response exceeds the EDNS budget")
	}
}

// clockedHandler is a BatchClock handler: it answers as the authority does
// and records, per call, the time it was last handed and how often.
type clockedHandler struct {
	dnsmsg.WireHandler
	now  time.Time
	sets int
	seen []time.Time // now, at each call
}

func (h *clockedHandler) SetNow(now time.Time) { h.now, h.sets = now, h.sets+1 }

func (h *clockedHandler) AppendHandleWire(dst, query []byte) ([]byte, error) {
	h.seen = append(h.seen, h.now)
	return h.WireHandler.AppendHandleWire(dst, query)
}

// TestBatchClockSetPerBatch: a handler that keeps the batch's time is
// handed the wall clock before each received batch, so every query is
// answered at a time no earlier than it was sent, and the worker reads the
// clock once a batch, not once a packet: with one query in flight each
// batch is one datagram.
func TestBatchClockSetPerBatch(t *testing.T) {
	h := &clockedHandler{WireHandler: testAuthority(t)}
	srv, err := Serve(h, "")
	if err != nil {
		t.Fatal(err)
	}
	wire, err := dnsmsg.NewQuery(9, "www.udp.test", dnsmsg.TypeA).Encode()
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	sent := make([]time.Time, n)
	for i := range sent {
		sent[i] = time.Now()
		if _, err := exchange("udp", srv.Addr(), wire); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	srv.Close() // joins the worker: its writes to h are done
	if len(h.seen) != n || h.sets != n {
		t.Fatalf("%d queries answered after %d clock sets, want %d of each", len(h.seen), h.sets, n)
	}
	for i, at := range h.seen {
		if at.Before(sent[i]) || i > 0 && !at.After(h.seen[i-1]) {
			t.Errorf("query %d, sent at %v, was answered at the handed time %v (the one before: %v)", i, sent[i], at, h.seen[max(i-1, 0)])
		}
	}
}
