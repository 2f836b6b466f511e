package httpsim

import (
	"slices"
	"time"

	"github.com/browsermetric/browsermetric/internal/eventsim"
	"github.com/browsermetric/browsermetric/internal/obs"
	"github.com/browsermetric/browsermetric/internal/slab"
	"github.com/browsermetric/browsermetric/internal/tcpsim"
)

// HandlerFunc produces a response for a request. It runs inside the
// simulated server host. The request — headers, body, everything — is
// only valid for the duration of the call; a handler that needs any of
// it later must copy. The returned response may be a long-lived cached
// object: the server never mutates it.
type HandlerFunc func(*Request) *Response

// Server is an HTTP/1.1 server over tcpsim, playing the role of the
// paper's Apache instance. The artificial +50 ms path delay of the
// testbed is not the server's: it sits on the server NIC's egress.
//
// The server is a tcpsim.DataSink: all per-connection state lives in
// slab-chunked srvConn records keyed off Conn.Upper, so accepting and
// serving connections is allocation-free in steady state. Parsed request
// strings are interned per server (the vocabulary of a testbed's traffic
// is bounded), and message/body bytes draw from the stack's arena.
type Server struct {
	Sim     *eventsim.Simulator
	Stack   *tcpsim.Stack
	Handler HandlerFunc
	// ParseCost models per-request server-side CPU cost.
	ParseCost time.Duration

	// Requests counts completed exchanges.
	Requests int

	in *Interner

	// records holds the srvConn records accept hands out; Forget rewinds
	// them, as tcpsim.Stack.Forget does for the transport records.
	records slab.Chunks[srvConn]

	// exFree is a freelist of exchange records; it stabilizes at the peak
	// number of concurrently delayed responses. inFlight counts the
	// exchanges scheduled and not yet answered.
	exFree   *exchange
	inFlight int
}

// srvConn is the server's per-connection receive state.
type srvConn struct {
	srv *Server
	c   *tcpsim.Conn
	buf []byte
	off int // parse offset into buf; buf resets to [:0] once fully consumed
}

// exchange is one in-flight request/response: parsed request storage plus
// the span covering the server's artificial delay. Pipelined requests each
// get their own exchange, so a delayed response never reads a request that
// a later parse overwrote. Records recycle through Server.exFree.
type exchange struct {
	sc   *srvConn
	req  Request
	span *obs.Span
	// respScratch materializes header edits (Connection: close) without
	// mutating the handler's possibly-cached response.
	respScratch Response
	next        *exchange
}

// Serve starts listening on port.
func (s *Server) Serve(port uint16) error {
	_, err := s.Stack.Listen(port, s.accept)
	return err
}

func (s *Server) accept(c *tcpsim.Conn) {
	if s.in == nil {
		s.in = NewInterner()
	}
	sc := s.records.Next()
	sc.srv = s
	sc.c = c
	sc.buf = sc.buf[:0]
	sc.off = 0
	c.Upper = sc
	c.Sink = s
}

// Idle reports whether no response is pending: every request the server
// parsed has been answered (or found its connection gone).
func (s *Server) Idle() bool { return s.inFlight == 0 }

// Forget recycles the per-connection records of every connection the
// server accepted. Call it when the stack forgets its connections, and
// only while the server is Idle: a pending response holds its
// connection's record. Receive buffers keep their capacity.
func (s *Server) Forget() {
	s.records.Rewind(func(used []srvConn) {
		for i := range used {
			used[i].c = nil
		}
	})
}

// Reset returns the server to its state before its first connection,
// keeping its interner and record storage: pending responses are
// dropped (the caller discards the events that would send them) and
// the request counter rewinds.
func (s *Server) Reset() {
	s.inFlight = 0
	s.Requests = 0
	s.Forget()
}

// ConnData implements tcpsim.DataSink: accumulate, parse, respond.
func (s *Server) ConnData(c *tcpsim.Conn, b []byte) {
	sc := c.Upper.(*srvConn)
	sc.buf = append(sc.buf, b...)
	for {
		ex := s.newExchange(sc)
		n, err := ParseRequestInto(&ex.req, sc.buf[sc.off:], s.in, s.Stack.Arena)
		if err == ErrIncomplete {
			s.freeExchange(ex)
			return
		}
		if err != nil {
			s.freeExchange(ex)
			c.Send((&Response{Status: 400, Body: []byte(err.Error())}).Marshal())
			c.Close()
			return
		}
		sc.off += n
		if sc.off == len(sc.buf) {
			// Fully consumed: reclaim the whole buffer. Appends past len
			// never touch the consumed region, so this is only safe here.
			sc.buf = sc.buf[:0]
			sc.off = 0
		}
		s.respond(ex)
	}
}

func (s *Server) newExchange(sc *srvConn) *exchange {
	ex := s.exFree
	if ex == nil {
		ex = &exchange{}
	} else {
		s.exFree = ex.next
		ex.next = nil
	}
	ex.sc = sc
	s.inFlight++
	return ex
}

func (s *Server) freeExchange(ex *exchange) {
	s.inFlight--
	ex.sc = nil
	ex.span = nil
	ex.req.Body = nil
	ex.next = s.exFree
	s.exFree = ex
}

func (s *Server) respond(ex *exchange) {
	ex.span = ex.sc.c.Tracer().Begin("server-delay").
		Str("http_method", ex.req.Method).
		Str("target", ex.req.Target).
		Dur("parse_cost", s.ParseCost)
	s.Sim.ScheduleAny(s.ParseCost, respondNowAny, ex)
}

// respondNowAny adapts respondNow for eventsim.ScheduleAny: one shared
// func(any) instead of a per-request closure.
func respondNowAny(v any) { v.(*exchange).respondNow() }

func (ex *exchange) respondNow() {
	sc := ex.sc
	s, c := sc.srv, sc.c
	defer ex.span.Done()
	defer s.freeExchange(ex)
	if c.State() != tcpsim.StateEstablished && c.State() != tcpsim.StateCloseWait {
		return
	}
	resp := s.handlerFor(&ex.req)
	close := WantsClose(ex.req.Headers) || WantsClose(resp.Headers)
	if close {
		// Copy-on-write: the handler's response may be cached and shared,
		// so the close header lands on a per-exchange scratch copy.
		ex.respScratch = Response{Proto: resp.Proto, Status: resp.Status, Reason: resp.Reason, Body: resp.Body}
		ex.respScratch.Headers = append(ex.respScratch.Headers[:0], resp.Headers...)
		ex.respScratch.Headers.Set("Connection", "close")
		resp = &ex.respScratch
	}
	c.Send(resp.MarshalArena(s.Stack.Arena))
	s.Requests++
	c.Metrics().Add("http_requests", 1)
	if close {
		c.Close()
	}
}

func (s *Server) handlerFor(req *Request) *Response {
	if s.Handler == nil {
		return &Response{Status: 404, Body: []byte("no handler")}
	}
	resp := s.Handler(req)
	if resp == nil {
		resp = &Response{Status: 500, Body: []byte("nil response")}
	}
	return resp
}

// ClientConn wraps an established tcpsim connection for pipelined
// request/response exchanges. The zero value is usable via Attach, which
// is also how one ClientConn is reused across successive connections of
// a measurement runner without reallocating its buffers.
type ClientConn struct {
	Conn *tcpsim.Conn
	// In, when non-nil, interns parsed response strings. Set it before
	// traffic flows; share one interner across the conns of a runner.
	In *Interner

	buf []byte
	off int
	// need is where in buf the message being received ends, once its
	// head has declared a length; ConnData parses nothing before then.
	need int
	pend []func(*Response)
	ph   int // index of the first pending callback in pend
	resp Response
}

// NewClientConn installs response parsing on c. It takes over c's data
// delivery (Conn.Sink).
func NewClientConn(c *tcpsim.Conn) *ClientConn {
	cc := &ClientConn{}
	cc.Attach(c)
	return cc
}

// Attach (re)binds cc to a connection, resetting all parse state while
// keeping buffer capacity. It lets one ClientConn serve a sequence of
// connections allocation-free.
func (cc *ClientConn) Attach(c *tcpsim.Conn) {
	cc.Conn = c
	cc.buf = cc.buf[:0]
	cc.off, cc.need = 0, 0
	cc.pend = cc.pend[:0]
	cc.ph = 0
	c.Sink = cc
}

// RoundTrip writes req and calls done with the parsed response. Multiple
// in-flight requests are matched to responses in FIFO order. The response
// passed to done is reused storage: it is valid until the next response
// arrives on this ClientConn.
func (cc *ClientConn) RoundTrip(req *Request, done func(*Response)) error {
	cc.pend = append(cc.pend, done)
	return cc.Conn.Send(req.MarshalArena(cc.Conn.Arena()))
}

// ConnData implements tcpsim.DataSink for response parsing.
func (cc *ClientConn) ConnData(_ *tcpsim.Conn, b []byte) {
	cc.buf = append(cc.buf, b...)
	if len(cc.buf) < cc.need {
		return // the declared body is still arriving
	}
	for cc.ph < len(cc.pend) {
		n, err := ParseResponseInto(&cc.resp, cc.buf[cc.off:], cc.In, cc.Conn.Arena())
		if err == ErrIncomplete {
			// Once the head is in, hold the whole body in one growth
			// rather than doubling as its segments arrive, and parse
			// again only when all of it is in.
			cc.need = cc.off + n
			cc.buf = reserve(cc.buf, cc.need)
			return
		}
		cc.need = 0
		done := cc.pend[cc.ph]
		cc.pend[cc.ph] = nil
		cc.ph++
		if cc.ph == len(cc.pend) {
			cc.pend = cc.pend[:0]
			cc.ph = 0
		}
		if err != nil {
			// Surface the error as a synthetic 0-status response so the
			// caller can observe failure without a separate channel.
			cc.buf = cc.buf[:0]
			cc.off = 0
			done(&Response{Status: 0, Reason: err.Error()})
			return
		}
		cc.off += n
		if cc.off == len(cc.buf) {
			cc.buf = cc.buf[:0]
			cc.off = 0
		}
		done(&cc.resp)
	}
}

// maxReserve bounds how far past the bytes already received reserve
// grows a buffer, so a declared length the bytes never fill cannot claim
// more memory than this.
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
