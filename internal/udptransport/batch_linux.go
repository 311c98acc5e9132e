//go:build linux && (amd64 || arm64)

package udptransport

import (
	"net"
	"syscall"
	"unsafe"
)

// mmsghdr mirrors the kernel's struct mmsghdr on 64-bit Linux: a msghdr
// plus the per-message byte count the kernel fills in (received length on
// recvmmsg, transmitted length on sendmmsg), padded to pointer alignment.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

// sockaddrBufLen fits any address family the socket can produce
// (sockaddr_in6 is the largest UDP case).
const sockaddrBufLen = syscall.SizeofSockaddrInet6

// mmsgIO is the Linux batched packetIO. All syscall argument structures —
// iovecs, msghdrs, sockaddr storage — are preallocated per slot and rearmed
// in place before each call, so recv and send never allocate. The syscalls
// run nonblocking inside the runtime poller's RawConn callbacks: EAGAIN
// parks the goroutine on the netpoller instead of spinning, and a closed
// socket surfaces as the callback error, exactly like a blocking read.
type mmsgIO struct {
	rc    syscall.RawConn
	slots []pktBuf
	rx    []byte
	names [][sockaddrBufLen]byte
	rhdrs []mmsghdr
	riovs []syscall.Iovec
	shdrs []mmsghdr
	siovs []syscall.Iovec
	sidx  []int // shdrs[i] transmits slots[sidx[i]]

	// The RawConn callbacks are bound once here: a closure literal passed
	// to rc.Read on every call would escape together with its captured
	// result variables, putting allocations back on the per-packet path.
	// Call state flows through the fields below instead.
	readFn  func(fd uintptr) bool
	writeFn func(fd uintptr) bool
	res     int           // packets moved by the last syscall
	errno   syscall.Errno // errno of the last syscall
	soff    int           // sendmmsg window into shdrs
	scnt    int
}

// newPacketIO selects the batched path, where one kernel crossing moves a
// whole batch of datagrams, or the portable single-packet path for a
// socket that exposes no raw descriptor.
func newPacketIO(conn *net.UDPConn, slots []pktBuf, rx []byte) packetIO {
	rc, err := conn.SyscallConn()
	if err != nil {
		return newSingleIO(conn, slots, rx)
	}
	n := len(slots)
	m := &mmsgIO{
		rc:    rc,
		slots: slots,
		rx:    rx,
		names: make([][sockaddrBufLen]byte, n),
		rhdrs: make([]mmsghdr, n),
		riovs: make([]syscall.Iovec, n),
		shdrs: make([]mmsghdr, n),
		siovs: make([]syscall.Iovec, n),
		sidx:  make([]int, n),
	}
	m.readFn = m.recvmmsg
	m.writeFn = m.sendmmsg
	return m
}

// recvmmsg is the rc.Read callback: one nonblocking recvmmsg, parking on
// the netpoller on EAGAIN.
func (m *mmsgIO) recvmmsg(fd uintptr) bool {
	r1, _, e := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
		uintptr(unsafe.Pointer(&m.rhdrs[0])), uintptr(len(m.rhdrs)),
		uintptr(syscall.MSG_DONTWAIT), 0, 0)
	if e == syscall.EAGAIN {
		return false // park on the netpoller until readable
	}
	m.res, m.errno = int(r1), e
	return true
}

// sendmmsg is the rc.Write callback: transmit the shdrs[soff:scnt] window.
func (m *mmsgIO) sendmmsg(fd uintptr) bool {
	r1, _, e := syscall.Syscall6(sysSENDMMSG, fd,
		uintptr(unsafe.Pointer(&m.shdrs[m.soff])), uintptr(m.scnt-m.soff),
		uintptr(syscall.MSG_DONTWAIT), 0, 0)
	if e == syscall.EAGAIN {
		return false // park until the send buffer drains
	}
	m.res, m.errno = int(r1), e
	return true
}

func (m *mmsgIO) recv() (int, error) {
	// Rearm every header: the kernel overwrites Namelen and the length
	// field on each call.
	for i := range m.rhdrs {
		m.riovs[i] = syscall.Iovec{Base: &m.rx[i*maxPacket], Len: maxPacket}
		h := &m.rhdrs[i]
		h.hdr = syscall.Msghdr{
			Name:    &m.names[i][0],
			Namelen: sockaddrBufLen,
			Iov:     &m.riovs[i],
			Iovlen:  1,
		}
		h.len = 0
	}
	if err := m.rc.Read(m.readFn); err != nil {
		return 0, err
	}
	if m.errno != 0 {
		return 0, m.errno
	}
	got := m.res
	for i := 0; i < got; i++ {
		m.slots[i].in = m.rx[i*maxPacket : i*maxPacket+int(m.rhdrs[i].len)]
	}
	return got, nil
}

func (m *mmsgIO) send(n int) (pkts, bytes uint64, err error) {
	// Compact the responding slots into the send headers, echoing each
	// datagram's source sockaddr back as the destination.
	cnt := 0
	for i := 0; i < n; i++ {
		b := &m.slots[i]
		if !b.send {
			continue
		}
		m.siovs[cnt] = syscall.Iovec{Base: &b.out[0], Len: uint64(len(b.out))}
		h := &m.shdrs[cnt]
		h.hdr = syscall.Msghdr{
			Name:    &m.names[i][0],
			Namelen: m.rhdrs[i].hdr.Namelen,
			Iov:     &m.siovs[cnt],
			Iovlen:  1,
		}
		h.len = 0
		m.sidx[cnt] = i
		cnt++
	}
	m.scnt = cnt
	for off := 0; off < cnt; {
		m.soff = off
		if werr := m.rc.Write(m.writeFn); werr != nil {
			return pkts, bytes, werr
		}
		sent := m.res
		if m.errno != 0 || sent == 0 {
			// A per-destination failure poisons the head message; skip it
			// and keep transmitting the rest. Best effort, like the
			// single-packet path: a lost response is the client's problem.
			off++
			continue
		}
		for i := off; i < off+sent; i++ {
			pkts++
			bytes += uint64(m.shdrs[i].len)
		}
		off += sent
	}
	return pkts, bytes, nil
}
