package netsim

import (
	"net/netip"
	"time"

	"github.com/browsermetric/browsermetric/internal/eventsim"
)

// TrafficGen injects Poisson cross traffic from a NIC: UDP datagrams of a
// fixed size at an exponential inter-arrival rate. The paper's testbed
// was kept free of cross traffic ("we also ensure that the network was
// free of cross traffic, packet loss, and retransmissions"); this
// generator exists to study what that control excludes — queueing delay
// and genuine network jitter competing with browser-side jitter.
type TrafficGen struct {
	sim *eventsim.Simulator
	nic *NIC

	// Rate is the mean datagram rate per second.
	Rate float64
	// Size is the datagram payload size in bytes.
	Size int
	// Dst / DstMAC / ports address the sink.
	Dst     netip.Addr
	DstMAC  MAC
	SrcPort uint16
	DstPort uint16

	// Sent counts generated datagrams.
	Sent    int
	running bool
	ipID    uint16

	tick    func()
	payload []byte
}

// NewTrafficGen builds a generator sending from nic to the given sink.
func NewTrafficGen(sim *eventsim.Simulator, nic *NIC, dst netip.Addr, dstMAC MAC, rate float64, size int) *TrafficGen {
	g := &TrafficGen{
		sim: sim, nic: nic,
		Rate: rate, Size: size,
		Dst: dst, DstMAC: dstMAC,
		SrcPort: 50001, DstPort: 50002,
	}
	g.tick = g.fire // cached once; a method value allocates
	return g
}

// Start begins generation; traffic flows until Stop.
func (g *TrafficGen) Start() {
	if g.running {
		return
	}
	g.running = true
	g.scheduleNext()
}

// Stop halts generation after any already-scheduled datagram.
func (g *TrafficGen) Stop() { g.running = false }

func (g *TrafficGen) scheduleNext() {
	if !g.running || g.Rate <= 0 {
		return
	}
	// Exponential inter-arrival: -ln(U)/rate.
	gap := time.Duration(g.sim.Rand().ExpFloat64() / g.Rate * float64(time.Second))
	g.sim.Schedule(gap, g.tick)
}

// fire emits one datagram and schedules the next. BuildUDP copies the
// payload into the frame, so the zeroed payload buffer is reused.
func (g *TrafficGen) fire() {
	if !g.running {
		return
	}
	g.ipID++
	if len(g.payload) != g.Size {
		g.payload = make([]byte, g.Size)
	}
	hdr := UDP{SrcPort: g.SrcPort, DstPort: g.DstPort}
	frame := BuildUDPArena(nil, g.nic.MAC, g.DstMAC, g.nic.Addr, g.Dst, g.ipID,
		&hdr, g.payload)
	g.nic.Send(frame)
	g.Sent++
	g.scheduleNext()
}
