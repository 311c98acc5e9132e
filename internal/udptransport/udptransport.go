// Package udptransport answers DNS queries arriving on real sockets with a
// dnsmsg handler (dnsnoise-serve's authority). The Server is a multi-core
// front door: N listener sockets (SO_REUSEPORT on Linux, single-socket
// elsewhere), each owned by a worker goroutine that moves datagrams in
// batches (recvmmsg/sendmmsg on Linux, one-packet syscalls elsewhere)
// through preallocated buffers — the steady-state packet path performs zero
// heap allocations. WithTCP adds the RFC 1035 framed TCP lane that a
// truncated (TC=1) answer sends clients to. There is no client side: the
// resolver exchanges with its upstream in process.
package udptransport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/qlog"
	"dnsnoise/internal/telemetry"
)

// maxPacket is the largest UDP payload accepted or sent; generous for the
// simulator's non-EDNS messages and the usual EDNS budgets (dig defaults
// to 1232).
const maxPacket = 4096

// minUDPPayload is the classic RFC 1035 response budget for clients that
// advertise no EDNS0 buffer size.
const minUDPPayload = 512

// dnsHeaderLen is the fixed DNS message header size; shorter datagrams
// cannot possibly be valid queries and are dropped before the handler.
const dnsHeaderLen = 12

// batchLen is the per-listener datagram batch size: large enough to
// amortize syscall cost under load, small enough that the per-listener
// buffer block (batchLen x maxPacket) stays in cache-friendly territory.
const batchLen = 32

// Scorer classifies one wire-format query as it passes through the serve
// path, returning its live disposable verdict. Implementations must be
// safe for the transport's calling pattern — one scorer per listener
// worker, never shared — and must not retain query past the call. The
// canonical implementation is livescore.Scorer, which notes the name into
// the streaming miner on the listener's goroutine and probes the miner's
// verdict snapshot, with zero allocations for a name already noted.
type Scorer interface {
	ScoreWire(query []byte) qlog.Verdict
}

// Server answers DNS queries from one or more UDP sockets.
type Server struct {
	wire       dnsmsg.WireHandler
	conns      []*net.UDPConn
	workers    []*listenerWorker
	reg        *telemetry.Registry
	log        *qlog.Log
	newScorer  func(listener int) Scorer
	listeners  int
	tcpEnabled bool
	tcp        *tcpState

	// Handler latency, observed on sampled (logged) packets only — the
	// unsampled fast path never reads the clock. Nil-safe. latAll covers
	// every sampled packet (the tsdb's p99 series and its alert rule);
	// the per-verdict pair exists only with a scorer attached.
	latAll        *telemetry.Histogram
	latBenign     *telemetry.Histogram
	latDisposable *telemetry.Histogram

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

// listenerStats is one listener's packet counters. Each worker writes only
// its own shard; scrapes sum the shards through CounterFunc at read time,
// the same sharding discipline as the resolver's per-server stats. The
// fields are atomic so concurrent scrapes are race-free; uncontended
// atomic adds cost the same as plain stores on the serve path.
type listenerStats struct {
	rxPackets atomic.Uint64
	rxBytes   atomic.Uint64
	txPackets atomic.Uint64
	txBytes   atomic.Uint64
	malformed atomic.Uint64
	dropped   atomic.Uint64
	truncated atomic.Uint64

	// Live-scoring verdict counts; only move when a scorer is attached.
	scoredBenign     atomic.Uint64
	scoredDisposable atomic.Uint64

	_ [7]uint64 // round to a 128-byte line pair against false sharing
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithServerMetrics registers the server's packet counters with reg:
// datagrams and bytes in/out, malformed queries (shorter than a DNS
// header), dropped queries (handler failures, malformed included),
// responses truncated to the client's payload budget, and the active
// listener count. Counters are kept in per-listener shards and summed at
// scrape time.
func WithServerMetrics(reg *telemetry.Registry) ServerOption {
	return func(s *Server) { s.reg = reg }
}

// WithServerQueryLog attaches a query-level event log: each listener
// worker head-samples handled queries through its own recorder and records
// name, qtype, rcode-derived outcome and handler latency. A nil log
// disables everything. Flush the log only after Close has joined the
// workers.
func WithServerQueryLog(l *qlog.Log) ServerOption {
	return func(s *Server) { s.log = l }
}

// WithScorer attaches live query scoring: factory is called once per
// listener at Serve time and the returned scorer classifies every
// datagram that clears the malformed gate, before the handler runs. The
// verdict tags the query's sampled qlog event, moves the per-verdict
// packet counters (udp_scored_total), and routes the sampled handler
// latency into a per-verdict histogram. Scorers are per-listener, so
// implementations need no internal locking against the packet path.
func WithScorer(factory func(listener int) Scorer) ServerOption {
	return func(s *Server) { s.newScorer = factory }
}

// WithListeners sets how many listener sockets to open (default 1). More
// than one requires SO_REUSEPORT kernel steering; on platforms without it
// the server silently falls back to a single socket (see Listeners).
func WithListeners(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.listeners = n
		}
	}
}

// Serve binds addr (e.g. "127.0.0.1:0" for an ephemeral port; "" defaults
// to that) and starts answering queries with handler until Close. A
// handler that also implements dnsmsg.WireHandler (like authority.Server)
// is served through that contract — the response appended to a
// transport-owned buffer reused across packets, so steady-state handling
// allocates nothing in the transport; a plain one is adapted with one copy
// per response.
func Serve(handler dnsmsg.Handler, addr string, opts ...ServerOption) (*Server, error) {
	if handler == nil {
		return nil, errors.New("udptransport: nil handler")
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	laddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("udptransport: resolve %q: %w", addr, err)
	}
	s := &Server{listeners: 1}
	for _, o := range opts {
		o(s)
	}
	s.wire = dnsmsg.AsWireHandler(handler)
	if err := s.bind(addr, laddr.Port == 0); err != nil {
		return nil, err
	}
	for i, conn := range s.conns {
		s.workers = append(s.workers, newListenerWorker(s, conn, i))
	}
	s.registerMetrics()
	for _, w := range s.workers {
		s.wg.Add(1)
		go w.loop()
	}
	return s, nil
}

// portDraws is how many ephemeral ports bind draws before it gives up on
// finding one whose TCP side is free too.
const portDraws = 8

// bind opens the UDP sockets on addr and, with WithTCP, the TCP listener on
// the port they drew. A TCP socket elsewhere may hold that port: when the
// caller asked for an ephemeral port, bind closes the UDP sockets and draws
// again, up to portDraws times; a port the caller named fails at once. On
// failure no socket is left open.
func (s *Server) bind(addr string, ephemeral bool) error {
	for draw := 1; ; draw++ {
		conns, err := listenAll(addr, s.listeners)
		if err != nil {
			return err
		}
		s.conns = conns
		if !s.tcpEnabled {
			return nil
		}
		if err = s.serveTCP(); err == nil {
			return nil
		}
		for _, c := range conns {
			c.Close()
		}
		s.conns = nil
		if !ephemeral || draw == portDraws || !errors.Is(err, syscall.EADDRINUSE) {
			return err
		}
	}
}

// listenAll opens n sockets on addr. The first bind resolves an ephemeral
// port; the rest bind the concrete address with SO_REUSEPORT so the kernel
// steers flows across them. Platforms without reuseport get one socket.
func listenAll(addr string, n int) ([]*net.UDPConn, error) {
	if n <= 1 || !reuseportAvailable {
		laddr, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return nil, fmt.Errorf("udptransport: resolve %q: %w", addr, err)
		}
		conn, err := net.ListenUDP("udp", laddr)
		if err != nil {
			return nil, fmt.Errorf("udptransport: listen: %w", err)
		}
		return []*net.UDPConn{conn}, nil
	}
	conns := make([]*net.UDPConn, 0, n)
	first, err := listenReusePort(addr)
	if err != nil {
		return nil, fmt.Errorf("udptransport: listen: %w", err)
	}
	conns = append(conns, first)
	bound := first.LocalAddr().String()
	for i := 1; i < n; i++ {
		c, err := listenReusePort(bound)
		if err != nil {
			for _, open := range conns {
				open.Close()
			}
			return nil, fmt.Errorf("udptransport: listener %d: %w", i, err)
		}
		conns = append(conns, c)
	}
	return conns, nil
}

// registerMetrics wires the scrape-time shard sums. Called after every
// worker exists and before any starts, so the workers slice is immutable
// when the collection functions run.
func (s *Server) registerMetrics() {
	if s.reg == nil {
		return
	}
	workers := s.workers
	sum := func(read func(*listenerStats) uint64) func() uint64 {
		return func() uint64 {
			var total uint64
			for _, w := range workers {
				total += read(&w.stats)
			}
			return total
		}
	}
	s.reg.CounterFunc("udp_rx_packets_total", "Datagrams received.",
		sum(func(st *listenerStats) uint64 { return st.rxPackets.Load() }))
	s.reg.CounterFunc("udp_rx_bytes_total", "Bytes received.",
		sum(func(st *listenerStats) uint64 { return st.rxBytes.Load() }))
	s.reg.CounterFunc("udp_tx_packets_total", "Response datagrams sent.",
		sum(func(st *listenerStats) uint64 { return st.txPackets.Load() }))
	s.reg.CounterFunc("udp_tx_bytes_total", "Bytes sent.",
		sum(func(st *listenerStats) uint64 { return st.txBytes.Load() }))
	s.reg.CounterFunc("udp_malformed_total", "Queries shorter than a DNS header.",
		sum(func(st *listenerStats) uint64 { return st.malformed.Load() }))
	s.reg.CounterFunc("udp_dropped_total", "Queries dropped unanswered.",
		sum(func(st *listenerStats) uint64 { return st.dropped.Load() }))
	s.reg.CounterFunc("udp_truncated_total", "Responses truncated to the client's payload budget.",
		sum(func(st *listenerStats) uint64 { return st.truncated.Load() }))
	s.reg.Gauge("udp_listeners", "Active listener sockets.").Set(float64(len(s.conns)))
	s.latAll = s.reg.Histogram("udp_handle_latency_ns",
		"Handler latency of sampled queries, all verdicts.")
	if s.tcp != nil {
		s.reg.CounterFunc("tcp_connections_total", "TCP fallback connections accepted.",
			s.tcp.accepts.Load)
		s.reg.CounterFunc("tcp_queries_total", "Queries answered over the TCP fallback listener.",
			s.tcp.queries.Load)
		s.reg.CounterFunc("tcp_refused_total", "TCP connections refused over the connection cap or cut at their query budget.",
			s.tcp.refused.Load)
	}
	if s.newScorer != nil {
		s.reg.CounterFunc(`udp_scored_total{verdict="benign"}`,
			"Queries live-scored benign.",
			sum(func(st *listenerStats) uint64 { return st.scoredBenign.Load() }))
		s.reg.CounterFunc(`udp_scored_total{verdict="disposable"}`,
			"Queries live-scored disposable.",
			sum(func(st *listenerStats) uint64 { return st.scoredDisposable.Load() }))
		s.latBenign = s.reg.Histogram(`udp_handle_latency_ns{verdict="benign"}`,
			"Handler latency of sampled queries scored benign.")
		s.latDisposable = s.reg.Histogram(`udp_handle_latency_ns{verdict="disposable"}`,
			"Handler latency of sampled queries scored disposable.")
	}
}

// Addr returns the bound address. With several listeners they all share it
// (SO_REUSEPORT), and the WithTCP listener binds it too.
func (s *Server) Addr() string { return s.conns[0].LocalAddr().String() }

// Listeners reports how many listener sockets are actually serving — the
// requested count, or 1 where SO_REUSEPORT is unavailable.
func (s *Server) Listeners() int { return len(s.conns) }

// Close stops the server and waits for every listener worker to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.closeTCP()
	for _, c := range s.conns {
		if cerr := c.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	s.wg.Wait()
	return err
}

// pktBuf is one packet slot in a listener's ring: the received datagram
// (a window into the worker's preallocated receive block) and the reusable
// response buffer the handler appends into.
type pktBuf struct {
	in   []byte // received datagram; valid until the next recv
	out  []byte // response wire; capacity reused across packets
	send bool   // out holds a response to transmit
}

// listenerWorker owns one socket: a goroutine looping recv -> process each
// packet -> send. All per-packet state is preallocated at construction, so
// the steady-state loop is allocation-free (guarded by AllocsPerRun tests).
type listenerWorker struct {
	srv    *Server
	conn   *net.UDPConn
	id     int
	slots  []pktBuf
	io     packetIO
	stats  listenerStats
	qrec   *qlog.Recorder
	scorer Scorer // per-listener, nil when scoring is off
	qname  []byte // logQuery's question scratch
}

// packetIO moves batches of datagrams between a socket and the worker's
// slots. recv blocks until at least one datagram arrives (or the socket
// closes) and returns how many slots it filled, setting each slot's in;
// send transmits every slot in [0, n) with send set, returning the packets
// and bytes actually put on the wire. Implementations preallocate all
// per-slot state: neither call allocates.
type packetIO interface {
	recv() (int, error)
	send(n int) (pkts, bytes uint64, err error)
}

func newListenerWorker(s *Server, conn *net.UDPConn, id int) *listenerWorker {
	w := &listenerWorker{
		srv:   s,
		conn:  conn,
		id:    id,
		slots: make([]pktBuf, batchLen),
	}
	rx := make([]byte, batchLen*maxPacket)
	w.io = newPacketIO(conn, w.slots, rx)
	w.qrec = s.log.NewRecorder(id) // nil-safe: nil log -> nil recorder
	if s.newScorer != nil {
		w.scorer = s.newScorer(id)
	}
	return w
}

func (w *listenerWorker) loop() {
	defer w.srv.wg.Done()
	for {
		n, err := w.io.recv()
		if err != nil {
			return // closed (or fatal socket error): stop serving
		}
		for i := 0; i < n; i++ {
			w.process(&w.slots[i])
		}
		pkts, bytes, err := w.io.send(n)
		w.stats.txPackets.Add(pkts)
		w.stats.txBytes.Add(bytes)
		if err != nil {
			return
		}
	}
}

// process handles one received datagram in b: counts it, drops malformed
// runts before the handler, appends the handler's response into the slot's
// reusable buffer, and applies the client's payload budget (EDNS0-aware
// truncation). This is the zero-allocation packet path — everything it
// touches is preallocated slot state.
func (w *listenerWorker) process(b *pktBuf) {
	b.send = false
	w.stats.rxPackets.Add(1)
	w.stats.rxBytes.Add(uint64(len(b.in)))
	if len(b.in) < dnsHeaderLen {
		// Shorter than a DNS header: not conceivably a query. Drop it
		// before the handler ever sees it.
		w.stats.malformed.Add(1)
		w.stats.dropped.Add(1)
		return
	}
	verdict := qlog.VerdictNone
	if w.scorer != nil {
		switch verdict = w.scorer.ScoreWire(b.in); verdict {
		case qlog.VerdictBenign:
			w.stats.scoredBenign.Add(1)
		case qlog.VerdictDisposable:
			w.stats.scoredDisposable.Add(1)
		}
	}
	logged := w.qrec.Sample()
	var handleStart time.Time
	if logged {
		handleStart = time.Now()
	}
	out, err := w.srv.wire.AppendHandleWire(b.out[:0], b.in)
	if logged {
		w.logQuery(b.in, out, err, verdict, time.Since(handleStart))
	}
	if err != nil || len(out) == 0 {
		// Unanswerable garbage: drop it, like a real server under junk
		// traffic. The client's timeout handles the rest.
		w.stats.dropped.Add(1)
		return
	}
	if budget := payloadBudget(b.in); len(out) > budget {
		out = truncateResponse(out)
		w.stats.truncated.Add(1)
	}
	b.out = out // keep any capacity growth for the next packet
	b.send = true
}

// payloadBudget is the largest response payload the querying client can
// accept: the classic 512 bytes, raised by an EDNS0 OPT record up to the
// transport's own packet cap. This is what makes `dig +bufsize=N` work.
func payloadBudget(query []byte) int {
	budget := minUDPPayload
	if sz, ok := dnsmsg.EDNSUDPSize(query); ok && int(sz) > budget {
		budget = int(sz)
		if budget > maxPacket {
			budget = maxPacket
		}
	}
	return budget
}

// truncateResponse shrinks resp to header+question with the TC bit set and
// the record counts zeroed — the RFC 1035 §4.1.1 signal for "retry over
// TCP". A header+question prefix is at most 12+255+4 bytes, which fits any
// budget the transport can produce, so the result always fits. Operates in
// place on the wire; never allocates.
func truncateResponse(resp []byte) []byte {
	end := dnsmsg.QuestionSectionEnd(resp)
	if end < 0 || end > len(resp) {
		end = dnsHeaderLen
		resp[4], resp[5] = 0, 0 // QDCOUNT: question dropped too
	}
	resp[2] |= 0x02 // TC
	for i := 6; i < dnsHeaderLen; i++ {
		resp[i] = 0 // ANCOUNT, NSCOUNT, ARCOUNT
	}
	return resp[:end]
}

// logQuery emits one event for a head-sampled query: the question as
// dnsmsg.AppendSoleQuestion reads it from the query wire (no name for a
// shape the reader rejects), the outcome derived from the response rcode,
// the live-scoring verdict (when a scorer is attached), and the handler's
// wall time. Spelling the name and the per-verdict latency observation
// happen only on sampled queries, off the unsampled fast path.
func (w *listenerWorker) logQuery(query, resp []byte, herr error, verdict qlog.Verdict, elapsed time.Duration) {
	w.srv.latAll.Observe(uint64(elapsed))
	switch verdict {
	case qlog.VerdictBenign:
		w.srv.latBenign.Observe(uint64(elapsed))
	case qlog.VerdictDisposable:
		w.srv.latDisposable.Observe(uint64(elapsed))
	}
	ev := qlog.Event{Time: time.Now(), LatencyNs: uint64(elapsed), Verdict: verdict}
	if name, _, qtype, ok := dnsmsg.AppendSoleQuestion(w.qname[:0], query); ok {
		w.qname = name
		ev.Name, ev.Qtype = string(name), qtype.String()
	}
	switch {
	case herr != nil || len(resp) < dnsHeaderLen:
		ev.Outcome = qlog.OutcomeError
	default:
		switch dnsmsg.RCode(resp[3] & 0x0F) {
		case dnsmsg.RCodeNoError:
			ev.Outcome = qlog.OutcomeNoError
		case dnsmsg.RCodeNXDomain:
			ev.Outcome = qlog.OutcomeNXDomain
		case dnsmsg.RCodeServFail:
			ev.Outcome = qlog.OutcomeServFail
		default:
			ev.Outcome = qlog.OutcomeError
		}
	}
	w.qrec.Emit(ev)
	// Drain eagerly: the worker handles a small batch at a time and its
	// /debug/qlog view should reflect a query as soon as it is answered,
	// not after a 256-event staging ring fills. The ring batching exists
	// for the simulation hot path; at packet-I/O rates one uncontended
	// mutex per sampled query is noise.
	w.qrec.Drain()
}
