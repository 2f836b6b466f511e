package netsim

import (
	"fmt"
	"net/netip"
	"time"

	"github.com/browsermetric/browsermetric/internal/eventsim"
	"github.com/browsermetric/browsermetric/internal/obs"
)

// Direction of a frame relative to the tapped interface.
type Direction int

const (
	DirOut Direction = iota // frame leaving the interface
	DirIn                   // frame arriving at the interface
)

func (d Direction) String() string {
	if d == DirOut {
		return "out"
	}
	return "in"
}

// TapFunc observes a frame crossing an interface. It is called with the
// raw frame, the virtual timestamp and the direction. Taps see every frame
// (like a promiscuous capture on the host) and must not mutate it.
type TapFunc func(frame []byte, at time.Duration, dir Direction)

// Device consumes frames delivered by a Port.
type Device interface {
	Receive(port *Port, frame []byte)
}

// Verdict is an Impairer's decision for one frame: whether it survives,
// how much extra delay it picks up on top of serialization + propagation,
// and whether a duplicate copy is delivered as well.
type Verdict struct {
	// Drop discards the frame (it occupies the wire, then evaporates).
	Drop bool
	// Delay is added to the frame's delivery time. A delay large enough to
	// let later frames arrive first is how reordering reaches receivers.
	Delay time.Duration
	// Dup delivers a second copy of the frame, Delay+DupDelay after the
	// unimpaired delivery time. Frames are immutable once sent, so both
	// copies may share the same buffer.
	Dup      bool
	DupDelay time.Duration
}

// Impairer judges every frame entering a link direction. side identifies
// the transmitting end (0 or 1), size is the frame length in bytes, now is
// the virtual send time and deliverAt the unimpaired delivery time (after
// serialization and propagation). Implementations must be deterministic
// functions of their own seeded state: the simulator calls Judge in a
// reproducible order, which is what keeps impaired runs bit-stable.
type Impairer interface {
	Judge(side, size int, now, deliverAt time.Duration) Verdict
}

// Link is a full-duplex point-to-point wire with finite bandwidth and
// propagation delay, e.g. a 100 Mbps Ethernet cable. Each direction has an
// independent transmit queue.
type Link struct {
	sim *eventsim.Simulator
	// BitsPerSecond is the line rate; zero means infinitely fast.
	BitsPerSecond int64
	// Propagation is the one-way signal latency.
	Propagation time.Duration
	// LossRate drops each frame independently with this probability
	// (deterministic given the simulator seed). The paper's testbed is
	// loss-free; loss injection exists for the UDP loss-measurement
	// extension and for failure testing of the TCP substrate.
	LossRate float64
	// Dropped counts frames lost to LossRate.
	Dropped int
	// Metrics, when non-nil, counts frames and bytes crossing the link
	// (wire_frames, wire_bytes, wire_frames_dropped).
	Metrics *obs.Metrics
	// Impair, when non-nil, judges every frame after the serialization
	// point: loss, extra delay (jitter, queueing, reorder holds) and
	// duplication. Nil means the pristine wire the paper's testbed used —
	// the hot path then takes exactly the pre-impairment code path.
	Impair Impairer
	ports  [2]*Port
}

// NewLink creates a link; attach both ends with Attach before use.
func NewLink(sim *eventsim.Simulator, bitsPerSecond int64, propagation time.Duration) *Link {
	return &Link{sim: sim, BitsPerSecond: bitsPerSecond, Propagation: propagation}
}

// Attach connects dev to the next free end of the link and returns its Port.
// A link has exactly two ends; attaching a third device panics.
func (l *Link) Attach(dev Device) *Port {
	for i := range l.ports {
		if l.ports[i] == nil {
			p := &Port{link: l, side: i, dev: dev}
			p.deliver = p.deliverFrame // cached once; a method value allocates
			l.ports[i] = p
			return p
		}
	}
	panic("netsim: link already has two devices attached")
}

// txTime returns the serialization delay for n bytes at the line rate.
func (l *Link) txTime(n int) time.Duration {
	if l.BitsPerSecond <= 0 {
		return 0
	}
	bits := int64(n) * 8
	return time.Duration(bits * int64(time.Second) / l.BitsPerSecond)
}

// Port is one end of a Link.
type Port struct {
	link      *Link
	side      int
	dev       Device
	deliver   func(frame []byte) // bound deliverFrame, for ScheduleBytes
	busyUntil time.Duration
}

// deliverFrame hands an arrived frame to the attached device.
func (p *Port) deliverFrame(frame []byte) { p.dev.Receive(p, frame) }

// Send transmits frame toward the opposite end of the link, honoring the
// line rate (frames queue behind earlier transmissions) and propagation
// delay. The frame slice is not copied; callers must not reuse it.
func (p *Port) Send(frame []byte) {
	l := p.link
	other := l.ports[1-p.side]
	if other == nil {
		panic("netsim: send on a half-connected link")
	}
	now := l.sim.Now()
	start := now
	if p.busyUntil > start {
		start = p.busyUntil
	}
	done := start + l.txTime(len(frame))
	p.busyUntil = done
	l.Metrics.Add("wire_frames", 1)
	l.Metrics.Add("wire_bytes", int64(len(frame)))
	if l.LossRate > 0 && l.sim.Rand().Float64() < l.LossRate {
		l.Dropped++
		l.Metrics.Add("wire_frames_dropped", 1)
		return // the frame occupies the wire, then evaporates
	}
	delay := done + l.Propagation - now
	if l.Impair != nil {
		v := l.Impair.Judge(p.side, len(frame), now, now+delay)
		if v.Drop {
			l.Dropped++
			l.Metrics.Add("wire_frames_dropped", 1)
			return
		}
		if v.Dup {
			l.sim.ScheduleBytes(delay+v.Delay+v.DupDelay, other.deliver, frame)
		}
		delay += v.Delay
	}
	l.sim.ScheduleBytes(delay, other.deliver, frame)
}

// NIC is a host network interface: it has a MAC and IPv4 address, delivers
// received frames to a handler, and exposes capture taps equivalent to
// running tcpdump/WinDump on the host.
type NIC struct {
	sim  *eventsim.Simulator
	Name string
	MAC  MAC
	Addr netip.Addr

	// EgressDelay postpones every outgoing frame by a fixed amount after
	// the capture tap has stamped it. The testbed sets 50 ms on the server
	// NIC to reproduce the paper's simulated Internet delay (which, being
	// applied at the network layer, also delays SYN-ACKs — the mechanism
	// behind handshake-inflated measurements). Constant delay preserves
	// frame ordering.
	EgressDelay time.Duration

	port    *Port
	egress  func(frame []byte) // bound port.Send, for ScheduleBytes
	handler func(frame []byte)
	taps    []TapFunc
}

// NewNIC creates an interface with the given addressing. Connect it to a
// link with Connect and set the inbound handler with SetHandler.
func NewNIC(sim *eventsim.Simulator, name string, mac MAC, addr netip.Addr) *NIC {
	return &NIC{sim: sim, Name: name, MAC: mac, Addr: addr}
}

// Connect attaches the NIC to one end of link.
func (n *NIC) Connect(link *Link) {
	n.port = link.Attach(n)
	n.egress = n.port.Send
}

// SetHandler installs the function invoked for every inbound frame.
func (n *NIC) SetHandler(h func(frame []byte)) { n.handler = h }

// AddTap registers a capture tap; taps fire for both directions.
func (n *NIC) AddTap(t TapFunc) { n.taps = append(n.taps, t) }

// Send transmits an Ethernet frame out the wire. Taps observe it with the
// current virtual timestamp, exactly like a capture running on this host.
//
// The frame is immutable from this point on: taps and receivers may retain
// it (the capture layer records it without copying), so callers must hand
// over a freshly built buffer and never write to it again.
func (n *NIC) Send(frame []byte) {
	if n.port == nil {
		panic(fmt.Sprintf("netsim: NIC %s is not connected", n.Name))
	}
	for _, t := range n.taps {
		t(frame, n.sim.Now(), DirOut)
	}
	if n.EgressDelay > 0 {
		n.sim.ScheduleBytes(n.EgressDelay, n.egress, frame)
		return
	}
	n.port.Send(frame)
}

// Receive implements Device.
func (n *NIC) Receive(_ *Port, frame []byte) {
	for _, t := range n.taps {
		t(frame, n.sim.Now(), DirIn)
	}
	if n.handler != nil {
		n.handler(frame)
	}
}

// Switch is a learning store-and-forward Ethernet switch. It buffers a
// whole frame (upstream link already models serialization), applies a
// fixed forwarding latency, then transmits on the learned port or floods.
type Switch struct {
	sim *eventsim.Simulator
	// ForwardingDelay models lookup plus store-and-forward latency.
	ForwardingDelay time.Duration
	ports           []*Port
	fwd             []func(frame []byte) // per-port bound forward, for ScheduleBytes
	// table holds the learned (MAC, port) pairs in first-seen order. A
	// switch serves a handful of hosts, so a linear scan beats hashing a
	// MAC on every frame.
	table []learned
}

// learned is one switch table entry: the port a source MAC was last seen on.
type learned struct {
	mac  MAC
	port *Port
}

// NewSwitch creates a switch with the given forwarding latency.
func NewSwitch(sim *eventsim.Simulator, forwardingDelay time.Duration) *Switch {
	return &Switch{sim: sim, ForwardingDelay: forwardingDelay}
}

// learn records that src was seen on port in, moving a known MAC.
func (s *Switch) learn(src MAC, in *Port) {
	for i := range s.table {
		if s.table[i].mac == src {
			s.table[i].port = in
			return
		}
	}
	s.table = append(s.table, learned{mac: src, port: in})
}

// lookup returns the port dst was last seen on.
func (s *Switch) lookup(dst MAC) (*Port, bool) {
	for i := range s.table {
		if s.table[i].mac == dst {
			return s.table[i].port, true
		}
	}
	return nil, false
}

// Connect attaches the switch to one end of link.
func (s *Switch) Connect(link *Link) {
	p := link.Attach(s)
	s.ports = append(s.ports, p)
	s.fwd = append(s.fwd, func(frame []byte) { s.forward(p, frame) })
}

// Receive implements Device: learn the source, then forward after the
// forwarding delay.
func (s *Switch) Receive(in *Port, frame []byte) {
	if len(frame) < ethernetHeaderLen {
		return // runt frame: drop silently, as hardware would
	}
	s.learn(MAC(frame[6:12]), in)
	for i, p := range s.ports {
		if p == in {
			s.sim.ScheduleBytes(s.ForwardingDelay, s.fwd[i], frame)
			return
		}
	}
}

// forward transmits a buffered frame on the learned port, or floods.
func (s *Switch) forward(in *Port, frame []byte) {
	dst := MAC(frame[0:6])
	if out, ok := s.lookup(dst); ok && dst != Broadcast {
		if out != in {
			out.Send(frame)
		}
		return
	}
	for _, p := range s.ports { // flood
		if p != in {
			p.Send(frame)
		}
	}
}
