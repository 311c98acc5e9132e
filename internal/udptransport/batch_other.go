//go:build !linux || !(amd64 || arm64)

package udptransport

import "net"

// newPacketIO is the portable one-datagram-per-syscall path: here
// recvmmsg/sendmmsg are unavailable, or the kernel struct layout is
// unverified.
func newPacketIO(conn *net.UDPConn, slots []pktBuf, rx []byte) packetIO {
	return newSingleIO(conn, slots, rx)
}
