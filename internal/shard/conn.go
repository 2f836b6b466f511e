package shard

import (
	"io"
	"net"
	"time"

	"github.com/browsermetric/browsermetric/internal/frame"
)

// ioTimeout bounds any single control-frame read or write. The protocol
// is strict request/response with renewals at TTL/3, so a healthy peer
// always speaks well inside this window; a peer silent past it is
// treated as dead (the lease machinery then reassigns its shards).
const ioTimeout = 30 * time.Second

// writeMsg encodes and sends one control frame with a write deadline.
func writeMsg(conn net.Conn, m *Msg) error {
	b, err := AppendMsg(nil, m)
	if err != nil {
		return err
	}
	if err := conn.SetWriteDeadline(time.Now().Add(ioTimeout)); err != nil {
		return err
	}
	_, err = conn.Write(b)
	return err
}

// readMsg reads exactly one control frame: the fixed header first (which
// carries the payload length), then the payload and checksum, handing
// the whole frame to DecodeMsg. A read deadline turns a dead peer into
// an error instead of a wedged goroutine.
func readMsg(conn net.Conn) (*Msg, error) {
	if err := conn.SetReadDeadline(time.Now().Add(ioTimeout)); err != nil {
		return nil, err
	}
	var hdr [frame.HeaderLen]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return nil, err
	}
	// Check magic and length cap before allocating; DecodeMsg
	// re-checks everything on the assembled frame.
	n, err := codec.Len(hdr[:])
	if err != nil {
		return nil, err
	}
	buf := make([]byte, n)
	copy(buf, hdr[:])
	if _, err := io.ReadFull(conn, buf[frame.HeaderLen:]); err != nil {
		return nil, err
	}
	m, _, err := DecodeMsg(buf)
	return m, err
}

// call sends a request and reads the single response — the protocol is
// strictly one-in-flight, so every exchange is a call.
func call(conn net.Conn, req *Msg) (*Msg, error) {
	if err := writeMsg(conn, req); err != nil {
		return nil, err
	}
	return readMsg(conn)
}
