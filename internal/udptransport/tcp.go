package udptransport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// tcpIdleTimeout is how long a server-side TCP connection may sit between
// messages before it is closed. Real resolvers send one retry and leave;
// anything slower is a stuck peer holding a goroutine.
const tcpIdleTimeout = 10 * time.Second

// tcpMaxMessage is the largest framed message accepted over TCP. The
// 2-byte length prefix caps the frame at 65535 anyway; this is just the
// explicit bound for buffer sizing.
const tcpMaxMessage = 1 << 16

// tcpMaxConns caps the connections served at once, and tcpMaxQueries the
// queries answered on one connection. The lane faces strangers: without
// them a peer could hold a goroutine and two 4 KB buffers per connection
// without bound, or keep one connection busy forever. A connection over
// the cap is closed at accept; one past its budget is closed when the next
// query arrives. Both count in tcp_refused_total.
const (
	tcpMaxConns   = 64
	tcpMaxQueries = 256
)

// WithTCP opens a TCP listener alongside the UDP sockets, on the same
// address, speaking RFC 1035 §4.2.2 framing: every message is prefixed
// with a 2-byte big-endian length. This is where clients land after a
// truncated (TC=1) UDP response. Each accepted connection gets its own
// goroutine, an idle deadline and a query budget, up to tcpMaxConns at
// once; responses over TCP are never truncated.
func WithTCP() ServerOption {
	return func(s *Server) { s.tcpEnabled = true }
}

// tcpState is the Server's TCP half: the listener, the accept loop's
// lifecycle, and the set of open connections so Close can cut them loose.
type tcpState struct {
	ln      net.Listener
	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	closed  bool
	accepts atomic.Uint64
	queries atomic.Uint64
	refused atomic.Uint64
}

// serveTCP binds the TCP listener on the UDP-bound address and starts the
// accept loop. Called from Serve after the UDP sockets exist, so the
// ephemeral port is already concrete.
func (s *Server) serveTCP() error {
	ln, err := net.Listen("tcp", s.Addr())
	if err != nil {
		return fmt.Errorf("udptransport: tcp listen: %w", err)
	}
	s.tcp = &tcpState{ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.tcp.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.tcp.mu.Lock()
		if s.tcp.closed {
			s.tcp.mu.Unlock()
			conn.Close()
			return
		}
		if len(s.tcp.conns) >= tcpMaxConns {
			s.tcp.mu.Unlock()
			s.tcp.refused.Add(1)
			conn.Close()
			continue
		}
		s.tcp.conns[conn] = struct{}{}
		s.tcp.mu.Unlock()
		s.tcp.accepts.Add(1)
		s.wg.Add(1)
		go s.serveTCPConn(conn)
	}
}

// serveTCPConn answers framed queries on one connection until the peer
// hangs up, a frame is malformed, the idle deadline passes or the query
// budget is spent. The TCP path allocates per connection, not per message
// — it is the rare retry lane, not the packet loop.
func (s *Server) serveTCPConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.tcp.mu.Lock()
		delete(s.tcp.conns, conn)
		s.tcp.mu.Unlock()
		conn.Close()
	}()
	var hdr [2]byte
	in := make([]byte, 0, maxPacket)
	out := make([]byte, 0, maxPacket)
	for served := 0; ; served++ {
		if err := conn.SetDeadline(time.Now().Add(tcpIdleTimeout)); err != nil {
			return
		}
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		if served == tcpMaxQueries {
			s.tcp.refused.Add(1)
			return
		}
		n := int(binary.BigEndian.Uint16(hdr[:]))
		if n < dnsHeaderLen {
			return // runt frame: hang up like a real server
		}
		if cap(in) < n {
			in = make([]byte, n)
		}
		in = in[:n]
		if _, err := io.ReadFull(conn, in); err != nil {
			return
		}
		s.tcp.queries.Add(1)
		resp, err := s.wire.AppendHandleWire(out[:0], in)
		if err != nil || len(resp) == 0 || len(resp) >= tcpMaxMessage {
			return // unanswerable: drop the connection
		}
		out = resp
		binary.BigEndian.PutUint16(hdr[:], uint16(len(resp)))
		if _, err := conn.Write(hdr[:]); err != nil {
			return
		}
		if _, err := conn.Write(resp); err != nil {
			return
		}
	}
}

// closeTCP shuts the listener and every open connection, unblocking their
// goroutines so Close's wg.Wait returns.
func (s *Server) closeTCP() error {
	if s.tcp == nil {
		return nil
	}
	s.tcp.mu.Lock()
	s.tcp.closed = true
	conns := make([]net.Conn, 0, len(s.tcp.conns))
	for c := range s.tcp.conns {
		conns = append(conns, c)
	}
	s.tcp.mu.Unlock()
	err := s.tcp.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	return err
}
