//go:build !linux || !(amd64 || arm64)

package udptransport

import "net"

// batchSyscalls is false where recvmmsg/sendmmsg are unavailable (or the
// kernel struct layout is unverified): a batch degrades to the portable
// one-datagram-per-syscall path.
const batchSyscalls = false

func newPacketIO(conn *net.UDPConn, slots []pktBuf, rx []byte) packetIO {
	return newSingleIO(conn, slots, rx)
}
