package udptransport

import (
	"errors"
	"net"
	"net/netip"
)

// singleIO is the portable packetIO: one datagram per syscall through the
// AddrPort read/write methods, which pass the peer address by value and so
// keep the path allocation-free. It serves builds where batchSyscalls is
// false, and sockets that expose no raw descriptor; it uses slot 0 only.
type singleIO struct {
	conn  *net.UDPConn
	slots []pktBuf
	rx    []byte
	addr  netip.AddrPort // peer of the datagram in slot 0
}

func newSingleIO(conn *net.UDPConn, slots []pktBuf, rx []byte) *singleIO {
	return &singleIO{conn: conn, slots: slots, rx: rx}
}

func (s *singleIO) recv() (int, error) {
	n, addr, err := s.conn.ReadFromUDPAddrPort(s.rx[:maxPacket])
	if err != nil {
		return 0, err
	}
	s.addr = addr
	s.slots[0].in = s.rx[:n]
	return 1, nil
}

func (s *singleIO) send(n int) (pkts, bytes uint64, err error) {
	for i := 0; i < n; i++ {
		b := &s.slots[i]
		if !b.send {
			continue
		}
		// Best effort; a lost response packet is the client's problem.
		if _, werr := s.conn.WriteToUDPAddrPort(b.out, s.addr); werr != nil {
			if isClosedErr(werr) {
				return pkts, bytes, werr
			}
			continue
		}
		pkts++
		bytes += uint64(len(b.out))
	}
	return pkts, bytes, nil
}

// isClosedErr reports whether err means the socket is gone and the worker
// should stop, as opposed to a transient per-packet send failure.
func isClosedErr(err error) bool {
	return errors.Is(err, net.ErrClosed)
}
