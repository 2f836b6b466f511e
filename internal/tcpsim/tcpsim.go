// Package tcpsim implements a from-scratch TCP over the netsim substrate:
// three-way handshake, sequence/acknowledgement accounting, in-order
// delivery with out-of-order buffering, FIN teardown, RST on unexpected
// segments, timeout-based retransmission with exponential backoff, fast
// retransmit on three duplicate ACKs, and slow-start/congestion-avoidance
// window management.
//
// Everything runs on the eventsim virtual clock with a callback API (no
// goroutines), so testbed runs are deterministic. The handshake cost this
// stack models is exactly the mechanism behind the paper's Table 3: a
// measurement method that opens a fresh connection absorbs a full RTT of
// handshake into its reported delay.
package tcpsim

import (
	"errors"
	"fmt"
	"net/netip"
	"time"

	"github.com/browsermetric/browsermetric/internal/arena"
	"github.com/browsermetric/browsermetric/internal/eventsim"
	"github.com/browsermetric/browsermetric/internal/netsim"
	"github.com/browsermetric/browsermetric/internal/obs"
	"github.com/browsermetric/browsermetric/internal/slab"
)

// MSS is the maximum segment payload this stack sends.
const MSS = 1460

// defaultRTO is the initial retransmission timeout.
const defaultRTO = 200 * time.Millisecond

// initialCwnd is the initial congestion window (IW4, RFC 3390-era).
const initialCwnd = 4 * MSS

// initialSsthresh effectively starts connections in slow start.
const initialSsthresh = 1 << 20

// State is a TCP connection state.
type State int

// Connection states (the subset this stack distinguishes).
const (
	StateClosed State = iota
	StateSynSent
	StateSynReceived
	StateEstablished
	StateFinWait   // we sent FIN, waiting for its ACK / peer FIN
	StateCloseWait // peer sent FIN, we have not closed yet
	StateLastAck   // peer closed first, we sent our FIN
)

func (s State) String() string {
	switch s {
	case StateClosed:
		return "CLOSED"
	case StateSynSent:
		return "SYN_SENT"
	case StateSynReceived:
		return "SYN_RCVD"
	case StateEstablished:
		return "ESTABLISHED"
	case StateFinWait:
		return "FIN_WAIT"
	case StateCloseWait:
		return "CLOSE_WAIT"
	case StateLastAck:
		return "LAST_ACK"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// fourTuple keys the connection table. The local address is the NIC's,
// so ports and the IPv4 peer identify a connection. Eight bytes with no
// pointer let the map take the runtime's 64-bit fast path; a netip.Addr
// holds a pointer and would force the generic hash on every segment.
type fourTuple struct {
	localPort, remotePort uint16
	remote                [4]byte
}

// Stack is a host TCP/UDP stack bound to one NIC.
type Stack struct {
	sim *eventsim.Simulator
	nic *netsim.NIC

	// Resolve maps an IPv4 address to a MAC (static ARP). The testbed
	// installs a table covering its two hosts.
	Resolve func(netip.Addr) (netsim.MAC, bool)

	// DropTx, when non-nil, is consulted for every outgoing segment; a
	// true return drops it before it reaches the wire (but after capture
	// taps would see nothing — the drop models NIC/driver loss). Used for
	// failure injection in tests.
	DropTx func() bool

	listeners   map[uint16]*Listener
	conns       map[fourTuple]*Conn
	udpHandlers map[uint16]func(src netip.Addr, srcPort uint16, payload []byte)

	nextEphemeral uint16
	ipID          uint16

	// SegmentsSent / SegmentsRetransmitted / FastRetransmits count for
	// diagnostics.
	SegmentsSent          int
	SegmentsRetransmitted int
	FastRetransmits       int

	// Trace records a "connect" span per outbound handshake; Metrics
	// counts segments, bytes and retransmits. Both may be nil (no-op).
	Trace   *obs.Tracer
	Metrics *obs.Metrics

	// Arena, when non-nil, supplies frame bytes for outgoing segments and
	// datagrams. Frames then live until the arena's next Reset, which the
	// testbed performs only between runs — after every in-flight frame is
	// dead. Nil means plain heap frames.
	Arena *arena.Arena

	// rxPkt is scratch decode storage for the inbound frame handler.
	// Safe because all frame delivery is event-scheduled, never reentrant.
	rxPkt netsim.Packet

	// records holds the connection records Dial and accept hand out.
	// Forget and Reset zero every record handed out since the previous
	// rewind and rewind the cursor: each such record belongs to a
	// connection that was torn down or has just been forgotten, so the
	// chunks hold about as many records as the busiest interval between
	// two Forgets opened connections.
	records slab.Chunks[Conn]

	// poison makes Forget poison the records it would recycle; see
	// SetPoison.
	poison bool
}

// NewStack creates a stack and installs itself as the NIC frame handler.
func NewStack(sim *eventsim.Simulator, nic *netsim.NIC) *Stack {
	s := &Stack{
		sim:           sim,
		nic:           nic,
		listeners:     make(map[uint16]*Listener),
		conns:         make(map[fourTuple]*Conn),
		udpHandlers:   make(map[uint16]func(netip.Addr, uint16, []byte)),
		nextEphemeral: ephemeralBase,
	}
	nic.SetHandler(s.receive)
	return s
}

// Listener accepts inbound connections on a port.
type Listener struct {
	Port   uint16
	Accept func(*Conn) // invoked when a connection reaches ESTABLISHED
}

// Listen starts accepting TCP connections on port. accept is invoked for
// each connection that completes the handshake.
func (s *Stack) Listen(port uint16, accept func(*Conn)) (*Listener, error) {
	if _, busy := s.listeners[port]; busy {
		return nil, fmt.Errorf("tcpsim: port %d already listening", port)
	}
	l := &Listener{Port: port, Accept: accept}
	s.listeners[port] = l
	return l, nil
}

// Conn is one TCP connection endpoint.
type Conn struct {
	stack *Stack
	tuple fourTuple
	state State

	// Sender side. Sequence space: sndUna (oldest unacked) <= sndTx
	// (next to transmit) <= sndNxt (next to assign). Segments wait in
	// sendQ until the congestion window admits them, then move to retxQ
	// until acknowledged.
	sndUna, sndTx, sndNxt uint32
	sendQ                 []segment
	retxQ                 []segment
	// Inline backing for the two queues: probe-style connections never
	// hold more than a few segments, so seeding the slices from these
	// arrays (see initQueues) makes their steady state allocation-free.
	sendBuf  [4]segment
	retxBuf  [4]segment
	rto      time.Duration
	rtoTimer eventsim.Event
	// Congestion control: classic slow start / congestion avoidance.
	cwnd     int // bytes
	ssthresh int // bytes
	dupAcks  int // consecutive duplicate ACKs for sndUna

	// Receiver side.
	rcvNxt      uint32
	oo          map[uint32][]byte // out-of-order segments by seq
	peerFinSeq  uint32
	peerFinSet  bool
	peerFinDone bool

	acceptCb func(*Conn) // listener accept callback, fired once

	// OnEstablished, when non-nil, fires when the handshake completes.
	OnEstablished func()
	// OnClose, when non-nil, fires exactly once when the connection
	// ends, with the reason: nil after an orderly close, ErrReset after
	// a peer's RST, ErrAborted when this end aborted (Abort, a Close
	// mid-handshake, or the give-up after repeated retransmission
	// timeouts). Forget ends connections without firing it.
	OnClose func(error)

	// Sink, when non-nil, receives the inbound in-order data. One
	// long-lived sink shared by every connection of a service keeps
	// accepting a connection allocation-free. Upper is sink-owned
	// per-conn state (e.g. the httpsim server conn wrapping this
	// transport conn).
	Sink  DataSink
	Upper any

	// connectSpan covers Dial → ESTABLISHED on the active opener.
	connectSpan *obs.Span

	closed bool
	// poisoned marks a record a poisoning Forget dropped: any method call
	// on it panics (see Stack.SetPoison).
	poisoned bool
}

// live panics when c is a poisoned record: a holder kept a pointer to a
// connection past the Forget that dropped it.
func (c *Conn) live() {
	if c.poisoned {
		panic("tcpsim: use of a connection record after Forget")
	}
}

// DataSink receives a connection's inbound in-order data. A service
// installs one sink for all its connections and keys per-conn state off
// the *Conn (usually via Conn.Upper).
type DataSink interface {
	ConnData(c *Conn, b []byte)
}

// The reasons OnClose reports for a connection that did not close in
// order.
var (
	// ErrReset ends a connection the peer reset.
	ErrReset = errors.New("tcpsim: connection reset by peer")
	// ErrAborted ends a connection this end aborted.
	ErrAborted = errors.New("tcpsim: connection aborted")
)

// deliver hands in-order payload to the connection's sink.
func (c *Conn) deliver(b []byte) {
	if c.Sink != nil {
		c.Sink.ConnData(c, b)
	}
}

// State returns the connection state.
func (c *Conn) State() State {
	c.live()
	return c.state
}

type segment struct {
	seq     uint32
	flags   byte
	payload []byte
	sentAt  time.Duration
}

// seqLen is the sequence-number space a segment occupies.
func (g segment) seqLen() uint32 {
	n := uint32(len(g.payload))
	if g.flags&(netsim.FlagSYN|netsim.FlagFIN) != 0 {
		n++
	}
	return n
}

// seqLE reports a <= b in mod-2^32 arithmetic.
func seqLE(a, b uint32) bool { return int32(b-a) >= 0 }

// seqLT reports a < b in mod-2^32 arithmetic.
func seqLT(a, b uint32) bool { return int32(b-a) > 0 }

// recycleConns zeroes every record handed out since the last rewind and
// rewinds the cursor to the first record. Under SetPoison the records
// are poisoned and their chunks dropped instead, so none is handed out
// again.
func (s *Stack) recycleConns() {
	if !s.poison {
		s.records.Rewind(func(used []Conn) { clear(used) })
		return
	}
	s.records.Rewind(func(used []Conn) {
		for i := range used {
			used[i].poisoned = true
		}
	})
	s.records = slab.Chunks[Conn]{}
}

// SetPoison toggles poisoning of forgotten connection records. Meant for
// tests: instead of recycling the records a Forget drops, the stack marks
// them so that any later method call on one panics, which turns a holder
// that outlives its connection from a silent cross-talk between two
// connections into a loud failure.
func (s *Stack) SetPoison(on bool) { s.poison = on }

// Dial opens a connection to dst:port. The returned Conn is in SYN_SENT;
// OnEstablished fires when the handshake completes. dst must be IPv4.
func (s *Stack) Dial(dst netip.Addr, port uint16) (*Conn, error) {
	if !dst.Is4() {
		return nil, fmt.Errorf("tcpsim: dial %v: not an IPv4 address", dst)
	}
	local, err := s.allocEphemeral()
	if err != nil {
		return nil, err
	}
	tuple := fourTuple{localPort: local, remotePort: port, remote: dst.As4()}
	isn := uint32(s.sim.Rand().Int63())
	c := s.records.Next()
	c.stack = s
	c.tuple = tuple
	c.state = StateSynSent
	c.sndUna, c.sndTx, c.sndNxt = isn, isn, isn
	c.rto = defaultRTO
	c.cwnd = initialCwnd
	c.ssthresh = initialSsthresh
	c.initQueues()
	s.conns[tuple] = c
	c.connectSpan = s.Trace.Begin("connect").Int("dst_port", int64(port)).Int("local_port", int64(local))
	c.enqueue(netsim.FlagSYN, nil)
	return c, nil
}

// Quiescent reports whether no connection on the stack holds transport
// state that references in-flight buffers: everything sent is acked,
// nothing waits in a send queue, and no out-of-order segment is parked.
// It is the safety predicate for resetting an arena the stack draws
// frames and segment payloads from — a non-quiescent conn could still
// retransmit (or deliver) bytes the reset would recycle.
func (s *Stack) Quiescent() bool {
	for _, c := range s.conns {
		if c.sndUna != c.sndNxt || len(c.sendQ) > 0 || len(c.retxQ) > 0 || len(c.oo) > 0 {
			return false
		}
	}
	return true
}

// Forget drops every connection from the table at once: no FIN or RST
// is sent, no callback fires and no timer stays armed. A segment that
// later arrives for a forgotten tuple takes the no-connection path (an
// RST). The testbed forgets at a run boundary where both stacks are
// Quiescent, so a table only ever holds the connections opened since
// the last quiet boundary, and the table scans of Quiescent and Dial
// cost that many steps rather than one per connection the stack ever
// opened.
//
// Forget also recycles the records of every connection opened since the
// previous Forget, the torn-down ones included: they are zeroed (a
// zeroed record reads CLOSED, and Send on it fails) and the next Dial or
// accept hands them out again. So no one may hold a *Conn across a
// Forget: the caller clears its holders first (the testbed's BeginRun
// runs after the methods runner has cleared its per-run pointers, and
// resets its services' per-connection state in the same step).
func (s *Stack) Forget() {
	for _, c := range s.conns {
		c.rtoTimer.Cancel()
	}
	clear(s.conns)
	s.recycleConns()
}

// Reset returns the stack to the state NewStack builds, keeping its
// listeners, UDP handlers and connection records: every connection is
// dropped as by Forget, quiescent or not, and the port, IP ID and
// segment counters rewind. The SetPoison setting stays.
func (s *Stack) Reset() {
	s.Forget()
	s.nextEphemeral = ephemeralBase
	s.ipID = 0
	s.SegmentsSent, s.SegmentsRetransmitted, s.FastRetransmits = 0, 0, 0
	s.DropTx = nil
}

// LiveConns returns how many connections the stack's table holds.
func (s *Stack) LiveConns() int { return len(s.conns) }

// Tracer returns the stack's tracer (possibly nil) so higher layers
// built on a Conn — like wssim — can record their own spans.
func (c *Conn) Tracer() *obs.Tracer {
	c.live()
	return c.stack.Trace
}

// Metrics returns the stack's metrics registry (possibly nil).
func (c *Conn) Metrics() *obs.Metrics {
	c.live()
	return c.stack.Metrics
}

// Arena returns the stack's arena (possibly nil) so higher layers can
// draw their message buffers from the same per-run epoch.
func (c *Conn) Arena() *arena.Arena {
	c.live()
	return c.stack.Arena
}

// ephemeralBase is the first of the 1<<14 ephemeral ports Dial hands out.
const ephemeralBase = 49152

// errPortsExhausted fails a Dial when every ephemeral port is taken.
var errPortsExhausted = errors.New("tcpsim: ephemeral port space exhausted")

// allocEphemeral returns the first port from nextEphemeral on, wrapping
// within the ephemeral range, that no connection in the table uses. One
// pass over the table marks the busy ports.
func (s *Stack) allocEphemeral() (uint16, error) {
	var busy [1 << 14 / 64]uint64
	for t := range s.conns {
		if t.localPort >= ephemeralBase {
			i := t.localPort - ephemeralBase
			busy[i/64] |= 1 << (i % 64)
		}
	}
	for n := 0; n < 1<<14; n++ {
		p := s.nextEphemeral
		s.nextEphemeral++
		if s.nextEphemeral < ephemeralBase {
			s.nextEphemeral = ephemeralBase
		}
		if i := p - ephemeralBase; busy[i/64]&(1<<(i%64)) == 0 {
			return p, nil
		}
	}
	return 0, errPortsExhausted
}

// Send queues application payload for in-order, reliable delivery.
// It may be called once the connection is established (or from the
// OnEstablished callback). Payload is segmented by MSS.
func (c *Conn) Send(payload []byte) error {
	c.live()
	if c.state != StateEstablished && c.state != StateCloseWait {
		return fmt.Errorf("tcpsim: send in state %v", c.state)
	}
	for len(payload) > 0 {
		n := len(payload)
		if n > MSS {
			n = MSS
		}
		c.enqueue(netsim.FlagPSH|netsim.FlagACK, payload[:n])
		payload = payload[n:]
	}
	return nil
}

// Close initiates an orderly shutdown by sending FIN.
func (c *Conn) Close() {
	c.live()
	switch c.state {
	case StateEstablished:
		c.state = StateFinWait
		c.enqueue(netsim.FlagFIN|netsim.FlagACK, nil) // FIN queues after pending data
	case StateCloseWait:
		c.state = StateLastAck
		c.enqueue(netsim.FlagFIN|netsim.FlagACK, nil)
	case StateClosed:
		// already closed
	default:
		// Closing mid-handshake: just abort.
		c.teardown(ErrAborted)
	}
}

// Abort sends RST and drops the connection immediately.
func (c *Conn) Abort() {
	c.live()
	c.rawSend(netsim.FlagRST|netsim.FlagACK, c.sndNxt, c.rcvNxt, nil)
	c.teardown(ErrAborted)
}

// teardown ends the connection once and reports why through OnClose.
func (c *Conn) teardown(reason error) {
	if c.closed {
		return
	}
	c.closed = true
	c.state = StateClosed
	c.rtoTimer.Cancel() // no-op on the zero handle or a fired timer
	c.rtoTimer = eventsim.Event{}
	delete(c.stack.conns, c.tuple)
	if c.OnClose != nil {
		c.OnClose(reason)
	}
}

// initQueues seeds sendQ and retxQ from the connection's inline arrays so
// short-lived connections never heap-allocate queue storage.
func (c *Conn) initQueues() {
	c.sendQ = c.sendBuf[:0]
	c.retxQ = c.retxBuf[:0]
}

// enqueue assigns sequence space to a segment and lets the congestion
// window decide when it reaches the wire.
func (c *Conn) enqueue(flags byte, payload []byte) {
	seg := segment{seq: c.sndNxt, flags: flags, payload: payload}
	c.sndNxt += seg.seqLen()
	c.sendQ = append(c.sendQ, seg)
	c.pump()
}

// inflight is the unacknowledged byte count on the wire.
func (c *Conn) inflight() int { return int(c.sndTx - c.sndUna) }

// pump transmits queued segments while the congestion window allows.
// Handshake segments (SYN, SYN-ACK) bypass the window; everything else —
// including the FIN — honors it.
func (c *Conn) pump() {
	sent, full := 0, false
	for sent < len(c.sendQ) {
		seg := c.sendQ[sent]
		bypass := seg.flags&netsim.FlagSYN != 0
		if !bypass && c.inflight()+int(seg.seqLen()) > c.cwnd && c.inflight() > 0 {
			full = true
			break
		}
		sent++
		seg.sentAt = c.stack.sim.Now()
		c.sndTx = seg.seq + seg.seqLen()
		c.retxQ = append(c.retxQ, seg)
		c.transmit(seg)
	}
	if sent > 0 {
		// Compact instead of re-slicing so the queue keeps its backing
		// array; popping via sendQ[1:] would strand the capacity and force
		// every subsequent enqueue to reallocate.
		n := copy(c.sendQ, c.sendQ[sent:])
		tail := c.sendQ[n:]
		for i := range tail {
			tail[i] = segment{} // release payload references
		}
		c.sendQ = c.sendQ[:n]
	}
	if full {
		return // window full; ACKs will reopen it (RTO stays as armed)
	}
	c.armRTO()
}

// transmit puts a tracked segment on the wire.
func (c *Conn) transmit(seg segment) {
	ackFlag := seg.flags
	ack := uint32(0)
	if ackFlag&netsim.FlagACK != 0 {
		ack = c.rcvNxt
	}
	c.rawSend(ackFlag, seg.seq, ack, seg.payload)
}

// rawSend emits one TCP segment without retransmission tracking.
func (c *Conn) rawSend(flags byte, seq, ack uint32, payload []byte) {
	s := c.stack
	s.SegmentsSent++
	if s.DropTx != nil && s.DropTx() {
		return
	}
	dst := netip.AddrFrom4(c.tuple.remote)
	mac, ok := s.resolveMAC(dst)
	if !ok {
		return
	}
	s.ipID++
	hdr := &netsim.TCP{
		SrcPort: c.tuple.localPort,
		DstPort: c.tuple.remotePort,
		Seq:     seq,
		Ack:     ack,
		Flags:   flags,
	}
	frame := netsim.BuildTCPArena(s.Arena, s.nic.MAC, mac, s.nic.Addr, dst, s.ipID, hdr, payload)
	s.Metrics.Add("tcp_segments_sent", 1)
	s.Metrics.Add("tcp_bytes_sent", int64(len(frame)))
	s.nic.Send(frame)
}

func (s *Stack) resolveMAC(a netip.Addr) (netsim.MAC, bool) {
	if s.Resolve == nil {
		return netsim.Broadcast, true
	}
	return s.Resolve(a)
}

func (c *Conn) armRTO() {
	c.rtoTimer.Cancel() // no-op if unset or already fired
	if len(c.retxQ) == 0 {
		c.rtoTimer = eventsim.Event{}
		return
	}
	c.rtoTimer = c.stack.sim.ScheduleAny(c.rto, onRTOAny, c)
}

// onRTOAny adapts onRTO for eventsim.ScheduleAny: one shared func(any)
// instead of a per-connection method value, which would allocate.
func onRTOAny(v any) { v.(*Conn).onRTO() }

func (c *Conn) onRTO() {
	c.live()
	if len(c.retxQ) == 0 || c.closed {
		return
	}
	c.stack.SegmentsRetransmitted++
	c.stack.Metrics.Add("tcp_retransmits", 1)
	c.rto *= 2
	if c.rto > 8*time.Second {
		// Too many losses: give up, as a real stack eventually would.
		c.Abort()
		return
	}
	// Multiplicative decrease: halve the flight into ssthresh, restart
	// from one segment.
	half := c.inflight() / 2
	if half < 2*MSS {
		half = 2 * MSS
	}
	c.ssthresh = half
	c.cwnd = MSS
	c.transmit(c.retxQ[0])
	c.armRTO()
}

// fastRetransmit resends the oldest unacked segment and halves the
// congestion window (simplified fast recovery).
func (c *Conn) fastRetransmit() {
	if len(c.retxQ) == 0 || c.closed {
		return
	}
	c.stack.SegmentsRetransmitted++
	c.stack.FastRetransmits++
	c.stack.Metrics.Add("tcp_retransmits", 1)
	c.stack.Metrics.Add("tcp_fast_retransmits", 1)
	half := c.inflight() / 2
	if half < 2*MSS {
		half = 2 * MSS
	}
	c.ssthresh = half
	c.cwnd = c.ssthresh
	c.transmit(c.retxQ[0])
	c.armRTO()
}

// receive is the NIC inbound frame handler.
func (s *Stack) receive(frame []byte) {
	p := &s.rxPkt
	err := p.Parse(frame, s.sim.Now())
	if err != nil || p.IP == nil || p.IP.Dst != s.nic.Addr {
		return
	}
	switch {
	case p.TCP != nil:
		s.receiveTCP(p)
	case p.UDP != nil:
		if h, ok := s.udpHandlers[p.UDP.DstPort]; ok {
			h(p.IP.Src, p.UDP.SrcPort, p.Payload)
		}
	}
}

func (s *Stack) receiveTCP(p *netsim.Packet) {
	tuple := fourTuple{localPort: p.TCP.DstPort, remotePort: p.TCP.SrcPort, remote: p.IP.Src.As4()}
	if c, ok := s.conns[tuple]; ok {
		c.handle(p)
		return
	}
	// No connection: maybe a listener can take a SYN.
	if p.TCP.Flags&netsim.FlagSYN != 0 && p.TCP.Flags&netsim.FlagACK == 0 {
		if l, ok := s.listeners[p.TCP.DstPort]; ok {
			s.acceptSyn(l, tuple, p)
			return
		}
	}
	// Otherwise RST anything that is not itself a RST.
	if p.TCP.Flags&netsim.FlagRST == 0 {
		s.sendRST(tuple, p)
	}
}

func (s *Stack) sendRST(tuple fourTuple, p *netsim.Packet) {
	dst := netip.AddrFrom4(tuple.remote)
	mac, ok := s.resolveMAC(dst)
	if !ok {
		return
	}
	s.ipID++
	hdr := &netsim.TCP{
		SrcPort: tuple.localPort,
		DstPort: tuple.remotePort,
		Seq:     p.TCP.Ack,
		Ack:     p.TCP.Seq + 1,
		Flags:   netsim.FlagRST | netsim.FlagACK,
	}
	s.nic.Send(netsim.BuildTCPArena(s.Arena, s.nic.MAC, mac, s.nic.Addr, dst, s.ipID, hdr, nil))
}

func (s *Stack) acceptSyn(l *Listener, tuple fourTuple, p *netsim.Packet) {
	isn := uint32(s.sim.Rand().Int63())
	c := s.records.Next()
	c.stack = s
	c.tuple = tuple
	c.state = StateSynReceived
	c.sndUna, c.sndTx, c.sndNxt = isn, isn, isn
	c.rcvNxt = p.TCP.Seq + 1
	c.rto = defaultRTO
	c.cwnd = initialCwnd
	c.ssthresh = initialSsthresh
	c.initQueues()
	s.conns[tuple] = c
	c.acceptCb = l.Accept
	c.enqueue(netsim.FlagSYN|netsim.FlagACK, nil)
}

// handle processes one inbound segment for an existing connection.
func (c *Conn) handle(p *netsim.Packet) {
	c.live()
	t := p.TCP
	if t.Flags&netsim.FlagRST != 0 {
		c.teardown(ErrReset)
		return
	}

	// Process ACK field.
	if t.Flags&netsim.FlagACK != 0 {
		c.processAck(t.Ack)
	}

	switch c.state {
	case StateSynSent:
		if t.Flags&netsim.FlagSYN != 0 && t.Flags&netsim.FlagACK != 0 {
			c.rcvNxt = t.Seq + 1
			c.state = StateEstablished
			c.connectSpan.Done()
			c.sendAck()
			if c.OnEstablished != nil {
				c.OnEstablished()
			}
		}
		return
	case StateSynReceived:
		if t.Flags&netsim.FlagACK != 0 && seqLE(c.sndUna, t.Ack) {
			c.state = StateEstablished
			if c.acceptCb != nil {
				cb := c.acceptCb
				c.acceptCb = nil
				cb(c)
				if c.OnEstablished != nil {
					c.OnEstablished()
				}
			}
			// Fall through: the ACK completing the handshake may carry data.
		}
	}

	// Data and FIN processing for synchronized states.
	before := c.rcvNxt
	delivered := false
	if len(p.Payload) > 0 {
		delivered = c.ingestData(t.Seq, p.Payload)
	}
	if t.Flags&netsim.FlagFIN != 0 {
		finSeq := t.Seq + uint32(len(p.Payload))
		c.peerFinSeq, c.peerFinSet = finSeq, true
	}
	c.drainInOrder(delivered)
	if len(p.Payload) > 0 && c.rcvNxt == before && !c.closed {
		// Out-of-order (or stale) data: duplicate ACK so the sender's
		// fast-retransmit logic can kick in.
		c.sendAck()
	}
}

func (c *Conn) processAck(ack uint32) {
	if !seqLT(c.sndUna, ack) || !seqLE(ack, c.sndNxt) {
		// Not an advancing ACK. A duplicate ACK for sndUna while data is
		// outstanding hints at loss; the third one triggers fast
		// retransmit (RFC 5681) without waiting for the RTO.
		if ack == c.sndUna && len(c.retxQ) > 0 {
			c.dupAcks++
			if c.dupAcks == 3 {
				c.fastRetransmit()
			}
		}
		return
	}
	c.dupAcks = 0
	acked := int(ack - c.sndUna)
	c.sndUna = ack
	if seqLT(c.sndTx, ack) {
		c.sndTx = ack
	}
	// Congestion window growth: exponential in slow start, ~MSS/RTT in
	// congestion avoidance.
	if c.cwnd < c.ssthresh {
		c.cwnd += acked
	} else {
		c.cwnd += MSS * MSS / c.cwnd
	}
	// Drop fully acknowledged segments; reset RTO backoff on progress.
	q := c.retxQ[:0]
	for _, seg := range c.retxQ {
		if seqLT(ack, seg.seq+seg.seqLen()) {
			q = append(q, seg)
		}
	}
	c.retxQ = q
	c.rto = defaultRTO
	c.pump() // also re-arms the RTO
	if len(c.retxQ) == 0 && len(c.sendQ) == 0 {
		switch c.state {
		case StateFinWait:
			// Our FIN is acked. If the peer's FIN was already consumed we
			// are fully closed; otherwise wait for it.
			if c.peerFinConsumed() {
				c.teardown(nil)
			}
		case StateLastAck:
			c.teardown(nil)
		}
	}
}

// ingestData accepts one data segment and reports whether rcvNxt advanced.
// In-order data — the overwhelmingly common case on the simulator's
// loss-free paths — is handed to the Sink directly: frames are immutable
// once transmitted (see netsim.NIC.Send), so no defensive copy is needed
// and the reassembly map is never touched. Only reordered segments are
// copied and staged for drainInOrder.
func (c *Conn) ingestData(seq uint32, payload []byte) bool {
	if seqLE(seq+uint32(len(payload)), c.rcvNxt) {
		return false // entirely old: retransmission of delivered data
	}
	if seq == c.rcvNxt && len(c.oo) == 0 {
		c.rcvNxt += uint32(len(payload))
		c.deliver(payload)
		return true
	}
	if c.oo == nil {
		c.oo = make(map[uint32][]byte, 4) // lazy: most conns never reorder
	}
	if _, dup := c.oo[seq]; !dup {
		// The copy lives at most until the run ends (either drained and
		// delivered, or dead with its connection), so arena storage is safe.
		buf := c.stack.Arena.Bytes(len(payload))
		copy(buf, payload)
		c.oo[seq] = buf
	}
	return false
}

// drainInOrder delivers contiguous data, processes a pending peer FIN and
// acknowledges whatever advanced rcvNxt. advanced carries whether the
// caller already advanced rcvNxt (ingestData's in-order fast path), so a
// single ACK covers direct delivery, reassembled data and the FIN alike.
func (c *Conn) drainInOrder(advanced bool) {
	for {
		if data, ok := c.oo[c.rcvNxt]; ok {
			delete(c.oo, c.rcvNxt)
			c.rcvNxt += uint32(len(data))
			advanced = true
			c.deliver(data)
			continue
		}
		break
	}
	if c.peerFinSet && c.rcvNxt == c.peerFinSeq {
		c.rcvNxt = c.peerFinSeq + 1
		c.peerFinSet = false
		c.peerFinDone = true
		advanced = true
		switch c.state {
		case StateEstablished:
			c.state = StateCloseWait
		case StateFinWait:
			if len(c.retxQ) == 0 {
				c.sendAck()
				c.teardown(nil)
				return
			}
		}
	}
	if advanced {
		c.sendAck()
	}
}

func (c *Conn) peerFinConsumed() bool { return c.peerFinDone }

func (c *Conn) sendAck() {
	c.rawSend(netsim.FlagACK, c.sndNxt, c.rcvNxt, nil)
}

// ListenUDP registers a handler for datagrams arriving on port.
func (s *Stack) ListenUDP(port uint16, h func(src netip.Addr, srcPort uint16, payload []byte)) error {
	if _, busy := s.udpHandlers[port]; busy {
		return fmt.Errorf("tcpsim: udp port %d already bound", port)
	}
	s.udpHandlers[port] = h
	return nil
}

// CloseUDP releases a UDP port bound with ListenUDP.
func (s *Stack) CloseUDP(port uint16) { delete(s.udpHandlers, port) }

// SendUDP emits a single datagram. A payload over netsim.MaxUDPPayload
// bytes does not fit one IPv4 datagram: nothing is sent and the error
// wraps netsim.ErrPayloadTooLarge.
func (s *Stack) SendUDP(dst netip.Addr, srcPort, dstPort uint16, payload []byte) error {
	if len(payload) > netsim.MaxUDPPayload {
		return fmt.Errorf("tcpsim: send %d-byte udp payload, limit %d: %w", len(payload), netsim.MaxUDPPayload, netsim.ErrPayloadTooLarge)
	}
	mac, ok := s.resolveMAC(dst)
	if !ok {
		return nil
	}
	s.ipID++
	hdr := &netsim.UDP{SrcPort: srcPort, DstPort: dstPort}
	s.nic.Send(netsim.BuildUDPArena(s.Arena, s.nic.MAC, mac, s.nic.Addr, dst, s.ipID, hdr, payload))
	return nil
}
