// Package wssim implements the WebSocket protocol (RFC 6455) over the
// tcpsim substrate: the HTTP/1.1 upgrade handshake with the real
// Sec-WebSocket-Accept derivation, and the binary frame codec with client
// masking.
//
// WebSocket is the paper's "native socket" option: it is the only
// socket-grade transport reachable from plain JavaScript and, per the
// evaluation, delivers the most accurate and consistent RTTs of the
// DOM/JavaScript-based methods.
package wssim

import (
	"crypto/sha1"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"github.com/browsermetric/browsermetric/internal/arena"
	"github.com/browsermetric/browsermetric/internal/httpsim"
	"github.com/browsermetric/browsermetric/internal/obs"
	"github.com/browsermetric/browsermetric/internal/tcpsim"
)

// Opcode identifies a frame type.
type Opcode byte

// RFC 6455 opcodes.
const (
	OpContinuation Opcode = 0x0
	OpText         Opcode = 0x1
	OpBinary       Opcode = 0x2
	OpClose        Opcode = 0x8
	OpPing         Opcode = 0x9
	OpPong         Opcode = 0xa
)

// magicGUID is the RFC 6455 handshake GUID.
const magicGUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

// Codec errors.
var (
	ErrIncomplete = errors.New("wssim: incomplete frame")
	ErrMalformed  = errors.New("wssim: malformed frame")
)

// Frame is a single WebSocket frame.
type Frame struct {
	Fin     bool
	Opcode  Opcode
	Masked  bool
	MaskKey [4]byte
	Payload []byte
}

// Marshal serializes the frame. Masked frames are XOR-masked with MaskKey
// as the client side must do.
func (f *Frame) Marshal() []byte { return f.MarshalArena(nil) }

// MarshalArena is Marshal carving the wire bytes from an arena instead of
// the heap (nil arena falls back to make). Bytes are identical either way.
func (f *Frame) MarshalArena(a *arena.Arena) []byte {
	b0 := byte(f.Opcode) & 0x0f
	if f.Fin {
		b0 |= 0x80
	}
	n := len(f.Payload)
	hdrLen := 2
	switch {
	case n < 126:
	case n <= 0xffff:
		hdrLen = 4
	default:
		hdrLen = 10
	}
	if f.Masked {
		hdrLen += 4
	}
	out := a.Bytes(hdrLen + n) // header + payload in one carve
	out[0] = b0
	switch {
	case n < 126:
		out[1] = byte(n)
	case n <= 0xffff:
		out[1] = 126
		binary.BigEndian.PutUint16(out[2:], uint16(n))
	default:
		out[1] = 127
		binary.BigEndian.PutUint64(out[2:], uint64(n))
	}
	if f.Masked {
		out[1] |= 0x80
		copy(out[hdrLen-4:hdrLen], f.MaskKey[:])
	}
	copy(out[hdrLen:], f.Payload)
	if f.Masked {
		body := out[hdrLen:]
		for i := range body {
			body[i] ^= f.MaskKey[i%4]
		}
	}
	return out
}

// parseHeader decodes a frame header from the front of b, returning the
// header length and payload length. The MaskKey (when present) lands in
// *key. When the header is in but the payload is not, both lengths come
// back with ErrIncomplete.
func parseHeader(b []byte, key *[4]byte) (fin bool, op Opcode, masked bool, off, plen int, err error) {
	if len(b) < 2 {
		return false, 0, false, 0, 0, ErrIncomplete
	}
	fin = b[0]&0x80 != 0
	op = Opcode(b[0] & 0x0f)
	masked = b[1]&0x80 != 0
	if b[0]&0x70 != 0 {
		return false, 0, false, 0, 0, fmt.Errorf("%w: nonzero RSV bits", ErrMalformed)
	}
	plen64 := uint64(b[1] & 0x7f)
	off = 2
	switch plen64 {
	case 126:
		if len(b) < off+2 {
			return false, 0, false, 0, 0, ErrIncomplete
		}
		plen64 = uint64(binary.BigEndian.Uint16(b[off:]))
		off += 2
	case 127:
		if len(b) < off+8 {
			return false, 0, false, 0, 0, ErrIncomplete
		}
		plen64 = binary.BigEndian.Uint64(b[off:])
		off += 8
		if plen64 > 1<<31 {
			return false, 0, false, 0, 0, fmt.Errorf("%w: frame length %d too large", ErrMalformed, plen64)
		}
	}
	if masked {
		if len(b) < off+4 {
			return false, 0, false, 0, 0, ErrIncomplete
		}
		copy(key[:], b[off:off+4])
		off += 4
	}
	if uint64(len(b)) < uint64(off)+plen64 {
		return false, 0, false, off, int(plen64), ErrIncomplete
	}
	return fin, op, masked, off, int(plen64), nil
}

// ParseFrame decodes one frame from the front of b, returning the frame
// and bytes consumed. Masked payloads are unmasked into a fresh copy; b is
// never mutated.
func ParseFrame(b []byte) (*Frame, int, error) {
	f := &Frame{}
	var err error
	var off, plen int
	f.Fin, f.Opcode, f.Masked, off, plen, err = parseHeader(b, &f.MaskKey)
	if err != nil {
		return nil, 0, err
	}
	f.Payload = make([]byte, plen)
	copy(f.Payload, b[off:off+plen])
	if f.Masked {
		for i := range f.Payload {
			f.Payload[i] ^= f.MaskKey[i%4]
		}
	}
	return f, off + plen, nil
}

// parseFrameInto is the allocation-free variant the conn's receive loop
// uses: the payload aliases b and masked payloads are unmasked in place,
// so the result is only valid until b's backing buffer is recycled. With
// ErrIncomplete, the count is the whole frame's length once its header
// is in, and 0 before.
func parseFrameInto(f *Frame, b []byte) (int, error) {
	var err error
	var off, plen int
	f.Fin, f.Opcode, f.Masked, off, plen, err = parseHeader(b, &f.MaskKey)
	if err == ErrIncomplete {
		return off + plen, err
	}
	if err != nil {
		return 0, err
	}
	f.Payload = b[off : off+plen]
	if f.Masked {
		for i := range f.Payload {
			f.Payload[i] ^= f.MaskKey[i%4]
		}
	}
	return off + plen, nil
}

// AcceptKey derives the Sec-WebSocket-Accept value for a client key.
func AcceptKey(clientKey string) string {
	h := sha1.Sum([]byte(clientKey + magicGUID))
	return base64.StdEncoding.EncodeToString(h[:])
}

// Conn is a WebSocket connection over a tcpsim connection. Messages are
// delivered via OnMessage once the handshake completes. The conn has no
// close callback of its own: a Close frame closes the TCP conn and a
// protocol error aborts it, so the TCP conn's OnClose reports the
// ending.
//
// The conn is a tcpsim.DataSink: handshake parsing and the frame receive
// loop run without per-connection closures, and a received message's
// payload aliases the conn's receive buffer — it is valid until the next
// message arrives on this conn; retain a copy to keep it longer.
type Conn struct {
	TCP      *tcpsim.Conn
	client   bool
	buf      []byte
	off      int // parse offset into buf; buf resets to [:0] once consumed
	upgraded bool

	// OnOpen fires when the handshake completes (client side only; server
	// conns are created already open).
	OnOpen func()
	// OnMessage fires per complete message: fragmented messages (a
	// non-FIN data frame followed by continuation frames) are reassembled
	// and delivered once, with the initial frame's opcode.
	OnMessage func(op Opcode, payload []byte)

	// Fragment reassembly state. fragBuf keeps its capacity across
	// messages; a delivered reassembled payload is valid until the next
	// fragmented message starts.
	fragOp  Opcode
	fragBuf []byte
	inFrag  bool

	rframe   Frame       // reused receive-parse target
	sframe   Frame       // reused send-marshal source
	acceptCb func(*Conn) // server side: pending accept callback
	upSpan   *obs.Span   // client side: upgrade span
	up       *upgrade    // handshake parse state shared with the conn's client or service
}

// upgrade is the handshake parse state that a Client, or the service a
// Serve call installs, reuses across its connections: a request and a
// response whose header storage recycles, and an interner for their
// strings. A handshake is parsed and consulted within one delivery, and
// one stack's deliveries never interleave, so the conns can share it.
type upgrade struct {
	in   *httpsim.Interner
	req  httpsim.Request
	resp httpsim.Response
}

func newUpgrade() *upgrade { return &upgrade{in: httpsim.NewInterner()} }

// Send transmits one data frame. Client connections mask it, per RFC 6455.
func (c *Conn) Send(op Opcode, payload []byte) error {
	c.sframe = Frame{Fin: true, Opcode: op, Payload: payload}
	if c.client {
		c.sframe.Masked = true
		c.sframe.MaskKey = [4]byte{0x12, 0x34, 0x56, 0x78}
	}
	m := c.TCP.Metrics()
	m.Add("ws_messages_sent", 1)
	m.Add("ws_bytes_sent", int64(len(payload)))
	return c.TCP.Send(c.sframe.MarshalArena(c.TCP.Arena()))
}

// ConnData implements tcpsim.DataSink: handshake bytes until upgraded,
// frames afterwards.
func (c *Conn) ConnData(_ *tcpsim.Conn, b []byte) {
	c.buf = append(c.buf, b...)
	if !c.upgraded {
		if c.client {
			c.clientHandshake()
		} else {
			c.serverHandshake()
		}
		return
	}
	c.drain()
}

// maxReserve bounds how far past the bytes already received reserve
// grows the receive buffer, so a declared frame length the bytes never
// fill cannot claim more memory than this.
const maxReserve = 1 << 20

// reserve returns b with capacity for need bytes, or for len(b) +
// maxReserve when need is larger, growing it at most once.
func reserve(b []byte, need int) []byte {
	need = min(need, len(b)+maxReserve)
	if need <= cap(b) {
		return b
	}
	return slices.Grow(b, need-len(b))
}

// drain parses and dispatches complete frames from the receive buffer.
func (c *Conn) drain() {
	for {
		n, err := parseFrameInto(&c.rframe, c.buf[c.off:])
		if err == ErrIncomplete {
			// Once the header is in, hold the whole frame in one growth
			// rather than doubling as its segments arrive.
			c.buf = reserve(c.buf, c.off+n)
			return
		}
		if err != nil {
			c.TCP.Abort()
			return
		}
		c.off += n
		if c.off == len(c.buf) {
			// Fully consumed: reclaim the buffer. The just-parsed payload
			// still aliases the consumed region, which later appends will
			// only overwrite once new data arrives — hence the "valid
			// until the next message" delivery contract.
			c.buf = c.buf[:0]
			c.off = 0
		}
		f := &c.rframe
		switch f.Opcode {
		case OpClose:
			c.TCP.Close()
			return
		case OpPing:
			c.sframe = Frame{Fin: true, Opcode: OpPong, Payload: f.Payload, Masked: c.client}
			_ = c.TCP.Send(c.sframe.MarshalArena(c.TCP.Arena()))
		case OpContinuation:
			if !c.inFrag {
				// Continuation without an open message: protocol error.
				c.TCP.Abort()
				return
			}
			c.fragBuf = append(c.fragBuf, f.Payload...)
			if f.Fin {
				c.inFrag = false
				if c.OnMessage != nil {
					c.OnMessage(c.fragOp, c.fragBuf)
				}
			}
		default:
			if !f.Fin {
				// Start of a fragmented message.
				c.inFrag = true
				c.fragOp = f.Opcode
				c.fragBuf = append(c.fragBuf[:0], f.Payload...)
				continue
			}
			if c.OnMessage != nil {
				c.OnMessage(f.Opcode, f.Payload)
			}
		}
	}
}

// finishHandshake switches the conn into frame mode: the unconsumed tail
// of the handshake bytes moves to the buffer's front so the frame loop's
// offset bookkeeping starts clean.
func (c *Conn) finishHandshake(consumed int) {
	rest := c.buf[consumed:]
	copy(c.buf, rest)
	c.buf = c.buf[:len(rest)]
	c.off = 0
	c.upgraded = true
}

func (c *Conn) clientHandshake() {
	resp := &c.up.resp
	n, err := httpsim.ParseResponseInto(resp, c.buf, c.up.in, c.TCP.Arena())
	if err == httpsim.ErrIncomplete {
		return
	}
	if err != nil || resp.Status != 101 || resp.Headers.Get("Sec-WebSocket-Accept") != clientAcceptKey {
		c.TCP.Abort()
		return
	}
	c.finishHandshake(n)
	c.upSpan.Done()
	if c.OnOpen != nil {
		c.OnOpen()
	}
	if len(c.buf) > 0 {
		c.drain()
	}
}

func (c *Conn) serverHandshake() {
	req := &c.up.req
	n, err := httpsim.ParseRequestInto(req, c.buf, c.up.in, c.TCP.Arena())
	if err == httpsim.ErrIncomplete {
		return
	}
	key := ""
	if err == nil {
		key = req.Headers.Get("Sec-WebSocket-Key")
	}
	if err != nil || key == "" {
		c.TCP.Send((&httpsim.Response{Status: 400}).Marshal())
		c.TCP.Close()
		return
	}
	if key == clientKey {
		// The simulated clients all send the static nonce; its response
		// bytes are precomputed once per process.
		c.TCP.Send(stdUpgradeResponse)
	} else {
		resp := httpsim.Response{
			Status: 101,
			Headers: httpsim.Headers{
				{Key: "Upgrade", Value: "websocket"},
				{Key: "Connection", Value: "Upgrade"},
				{Key: "Sec-WebSocket-Accept", Value: AcceptKey(key)},
			},
		}
		c.TCP.Send(resp.MarshalArena(c.TCP.Arena()))
	}
	c.finishHandshake(n)
	accept := c.acceptCb
	c.acceptCb = nil
	if accept != nil {
		accept(c)
	}
	if len(c.buf) > 0 {
		c.drain()
	}
}

// clientKey is the static nonce our simulated clients send; the value is
// arbitrary but must be valid base64 of 16 bytes.
const clientKey = "dGhlIHNhbXBsZSBub25jZQ=="

// clientAcceptKey is AcceptKey(clientKey), derived once.
var clientAcceptKey = AcceptKey(clientKey)

// stdUpgradeResponse is the marshaled 101 response for the static client
// nonce. Sending a shared slice is safe: the transport treats payload
// bytes as read-only.
var stdUpgradeResponse = (&httpsim.Response{
	Status: 101,
	Headers: httpsim.Headers{
		{Key: "Upgrade", Value: "websocket"},
		{Key: "Connection", Value: "Upgrade"},
		{Key: "Sec-WebSocket-Accept", Value: clientAcceptKey},
	},
}).Marshal()

// Client dials WebSocket connections. It keeps the upgrade-response parse
// state that its connections share, so a handshake allocates no parse
// results. The zero value is ready to use; like the connections it
// dials, a Client belongs to one stack.
type Client struct {
	up *upgrade
}

// Dial performs the client upgrade handshake on an *established* tcpsim
// connection and returns the WebSocket conn. OnOpen fires when the 101
// response arrives.
func (cl *Client) Dial(tc *tcpsim.Conn, host, path string) (*Conn, error) {
	if cl.up == nil {
		cl.up = newUpgrade()
	}
	c := &Conn{TCP: tc, client: true, up: cl.up}
	c.upSpan = tc.Tracer().Begin("ws-upgrade").Str("path", path)
	req := httpsim.Request{
		Method: "GET",
		Target: path,
		Headers: httpsim.Headers{
			{Key: "Host", Value: host},
			{Key: "Upgrade", Value: "websocket"},
			{Key: "Connection", Value: "Upgrade"},
			{Key: "Sec-WebSocket-Key", Value: clientKey},
			{Key: "Sec-WebSocket-Version", Value: "13"},
		},
	}
	tc.Sink = c
	return c, tc.Send(req.MarshalArena(tc.Arena()))
}

// Serve installs a WebSocket acceptor on stack port. accept is invoked
// with each upgraded connection; the handler should set OnMessage.
func Serve(stack *tcpsim.Stack, port uint16, accept func(*Conn)) error {
	up := newUpgrade()
	_, err := stack.Listen(port, func(tc *tcpsim.Conn) {
		c := &Conn{TCP: tc, acceptCb: accept, up: up}
		tc.Sink = c
	})
	return err
}
