package tcpsim

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/eventsim"
	"github.com/browsermetric/browsermetric/internal/netsim"
)

// lossyPair joins two stacks over a single link with the given loss rate.
func lossyPair(t testing.TB, sim *eventsim.Simulator, loss float64) (*Stack, *Stack, *netsim.Link) {
	t.Helper()
	nicA := netsim.NewNIC(sim, "a", macA, ipA)
	nicB := netsim.NewNIC(sim, "b", macB, ipB)
	link := netsim.NewLink(sim, 100_000_000, 10*time.Microsecond)
	link.LossRate = loss
	nicA.Connect(link)
	nicB.Connect(link)
	table := map[netip.Addr]netsim.MAC{ipA: macA, ipB: macB}
	resolve := func(a netip.Addr) (netsim.MAC, bool) { m, ok := table[a]; return m, ok }
	sa, sb := NewStack(sim, nicA), NewStack(sim, nicB)
	sa.Resolve, sb.Resolve = resolve, resolve
	return sa, sb, link
}

func TestReliableTransferUnderLoss(t *testing.T) {
	// 10% random frame loss: the retransmission machinery must still
	// deliver every byte in order.
	totalDropped := 0
	for _, seed := range []int64{1, 2, 3} {
		sim := eventsim.New(seed)
		client, server, link := lossyPair(t, sim, 0.10)

		payload := make([]byte, 8*MSS)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		var got []byte
		server.Listen(80, func(c *Conn) {
			c.Sink = sinkFunc(func(b []byte) { got = append(got, b...) })
		})
		c, _ := client.Dial(ipB, 80)
		c.OnEstablished = func() { c.Send(payload) }
		sim.RunUntil(2 * time.Minute)

		if !bytes.Equal(got, payload) {
			t.Fatalf("seed %d: delivered %d/%d bytes intact=%v (link dropped %d)",
				seed, len(got), len(payload), bytes.Equal(got, payload), link.Dropped)
		}
		totalDropped += link.Dropped
		// A single dropped frame can be a pure ACK that a later cumulative
		// ACK covers without any retransmission; only several drops make
		// retransmissions inevitable.
		if link.Dropped >= 3 && client.SegmentsRetransmitted == 0 && server.SegmentsRetransmitted == 0 {
			t.Fatalf("seed %d: no retransmissions despite %d drops", seed, link.Dropped)
		}
	}
	if totalDropped == 0 {
		t.Fatal("loss injection inactive across all seeds")
	}
}

func TestHandshakeSurvivesSYNLoss(t *testing.T) {
	// Drop the very first transmission (the SYN) at the stack level; the
	// RTO must re-send it and the connection still establishes.
	sim := eventsim.New(4)
	client, server := pair(t, sim, 10*time.Microsecond)
	sent := 0
	client.DropTx = func() bool {
		sent++
		return sent == 1 // lose the first SYN only
	}
	established := false
	server.Listen(80, func(*Conn) {})
	c, _ := client.Dial(ipB, 80)
	c.OnEstablished = func() { established = true }
	sim.RunUntil(10 * time.Second)
	if !established {
		t.Fatal("handshake never recovered from SYN loss")
	}
	if client.SegmentsRetransmitted != 1 {
		t.Fatalf("retransmissions = %d, want 1", client.SegmentsRetransmitted)
	}
}

func TestExtremeLossEventuallyAborts(t *testing.T) {
	// A wire that eats everything: the sender must give up (RST/teardown)
	// rather than retransmit forever.
	sim := eventsim.New(5)
	client, _, _ := lossyPair(t, sim, 1.0)
	closed := false
	c, _ := client.Dial(ipB, 80)
	c.OnClose = func(error) { closed = true }
	sim.RunUntil(5 * time.Minute)
	if !closed {
		t.Fatalf("connection still alive on a dead wire (state %v)", c.State())
	}
}

func TestLossDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) int {
		sim := eventsim.New(seed)
		client, server, link := lossyPair(t, sim, 0.2)
		server.Listen(80, func(c *Conn) {
			c.Sink = sinkFunc(func(b []byte) { c.Send(b) })
		})
		c, _ := client.Dial(ipB, 80)
		c.OnEstablished = func() { c.Send(make([]byte, 4*MSS)) }
		sim.RunUntil(time.Minute)
		return link.Dropped
	}
	if run(42) != run(42) {
		t.Fatal("loss pattern not deterministic for a fixed seed")
	}
}
