package tcpsim

import (
	"bytes"
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/eventsim"
)

func TestSlowStartGrowsWindow(t *testing.T) {
	sim := eventsim.New(21)
	client, server := pair(t, sim, 5*time.Millisecond) // RTT ~ 20ms
	var got []byte
	server.Listen(80, func(c *Conn) {
		c.Sink = sinkFunc(func(b []byte) { got = append(got, b...) })
	})
	payload := make([]byte, 64*MSS)
	c, _ := client.Dial(ipB, 80)
	c.OnEstablished = func() { c.Send(payload) }
	sim.RunUntil(time.Minute)

	if !bytes.Equal(got, payload) {
		t.Fatalf("delivered %d of %d bytes", len(got), len(payload))
	}
	if c.cwnd <= initialCwnd {
		t.Fatalf("cwnd = %d never grew beyond initial %d", c.cwnd, initialCwnd)
	}
}

func TestSlowStartPacesTransfer(t *testing.T) {
	// With RTT ~ 20ms and IW4, 64 segments need ~4 slow-start rounds
	// (4+8+16+32=60, then the rest): the transfer must take multiple
	// RTTs, not complete in one burst.
	sim := eventsim.New(22)
	client, server := pair(t, sim, 5*time.Millisecond)
	var doneAt time.Duration
	want := 64 * MSS
	got := 0
	server.Listen(80, func(c *Conn) {
		c.Sink = sinkFunc(func(b []byte) {
			got += len(b)
			if got >= want {
				doneAt = sim.Now()
			}
		})
	})
	c, _ := client.Dial(ipB, 80)
	var start time.Duration
	c.OnEstablished = func() {
		start = sim.Now()
		c.Send(make([]byte, want))
	}
	sim.RunUntil(time.Minute)
	if got != want {
		t.Fatalf("delivered %d of %d", got, want)
	}
	elapsed := doneAt - start
	rtt := 20 * time.Millisecond
	if elapsed < 3*rtt {
		t.Fatalf("64-segment transfer finished in %v (<3 RTT): no pacing", elapsed)
	}
	if elapsed > 10*rtt {
		t.Fatalf("transfer took %v (>10 RTT): window not growing", elapsed)
	}
}

func TestRTOShrinksWindow(t *testing.T) {
	sim := eventsim.New(23)
	client, server := pair(t, sim, time.Millisecond)
	server.Listen(80, func(c *Conn) {
		c.Sink = sinkFunc(func([]byte) {})
	})
	// Drop a mid-transfer data segment to force an RTO.
	sent := 0
	client.DropTx = func() bool {
		sent++
		return sent == 5 // one of the first data segments
	}
	c, _ := client.Dial(ipB, 80)
	c.OnEstablished = func() { c.Send(make([]byte, 16*MSS)) }

	// Run until the retransmission happened.
	sim.RunUntil(10 * time.Second)
	if client.SegmentsRetransmitted == 0 {
		t.Fatal("no RTO occurred")
	}
	// After multiplicative decrease the window restarts low and regrows;
	// it must never end below MSS.
	if c.cwnd < MSS {
		t.Fatalf("cwnd = %d below one MSS", c.cwnd)
	}
}

func TestFinWaitsForQueuedData(t *testing.T) {
	// Close immediately after a large Send: the FIN occupies sequence
	// space after all data, so the peer must receive every byte before
	// the connection closes.
	sim := eventsim.New(24)
	client, server := pair(t, sim, 2*time.Millisecond)
	var got []byte
	serverClosed := false
	want := 32 * MSS
	server.Listen(80, func(c *Conn) {
		c.Sink = sinkFunc(func(b []byte) {
			got = append(got, b...)
			if len(got) >= want {
				c.Close() // app closes its half once everything arrived
			}
		})
		c.OnClose = func(error) { serverClosed = true }
	})
	payload := make([]byte, 32*MSS)
	for i := range payload {
		payload[i] = byte(i)
	}
	c, _ := client.Dial(ipB, 80)
	clientClosed := false
	c.OnClose = func(error) { clientClosed = true }
	c.OnEstablished = func() {
		c.Send(payload)
		c.Close() // FIN queued behind 32 segments
	}
	sim.RunUntil(time.Minute)
	if !bytes.Equal(got, payload) {
		t.Fatalf("delivered %d of %d bytes before FIN", len(got), len(payload))
	}
	if !clientClosed || !serverClosed {
		t.Fatalf("closed: client=%v server=%v", clientClosed, serverClosed)
	}
}

func TestCwndBypassForHandshake(t *testing.T) {
	// SYN and SYN-ACK must go out regardless of window state.
	sim := eventsim.New(25)
	client, server := pair(t, sim, time.Millisecond)
	established := false
	server.Listen(80, func(*Conn) {})
	c, _ := client.Dial(ipB, 80)
	c.OnEstablished = func() { established = true }
	sim.RunUntil(time.Second)
	if !established {
		t.Fatal("handshake blocked")
	}
}

func TestFastRetransmitOnDupAcks(t *testing.T) {
	// Drop one data segment in the middle of a multi-segment burst: the
	// later segments generate duplicate ACKs and the sender must recover
	// via fast retransmit, well before the 200 ms RTO.
	sim := eventsim.New(26)
	client, server := pair(t, sim, time.Millisecond) // RTT ~4ms
	var got int
	server.Listen(80, func(c *Conn) {
		c.Sink = sinkFunc(func(b []byte) { got += len(b) })
	})
	sent := 0
	client.DropTx = func() bool {
		sent++
		return sent == 4 // handshake SYN=1, ACK=2, data1=3, drop data2=4
	}
	want := 8 * MSS
	c, _ := client.Dial(ipB, 80)
	var start, done time.Duration
	c.OnEstablished = func() {
		start = sim.Now()
		c.Send(make([]byte, want))
	}
	sim.RunUntil(30 * time.Second)
	if got != want {
		t.Fatalf("delivered %d of %d", got, want)
	}
	_ = done
	if client.FastRetransmits == 0 {
		t.Fatal("loss recovered without fast retransmit")
	}
	// Recovery must not have needed the 200ms RTO: total transfer well
	// under RTO + transfer time.
	if elapsed := sim.Now() - start; elapsed > 150*time.Millisecond {
		t.Fatalf("transfer took %v, fast retransmit should beat the RTO", elapsed)
	}
}

func TestNoSpuriousFastRetransmit(t *testing.T) {
	// A clean transfer must not trigger fast retransmits.
	sim := eventsim.New(27)
	client, server := pair(t, sim, time.Millisecond)
	server.Listen(80, func(c *Conn) { c.Sink = sinkFunc(func([]byte) {}) })
	c, _ := client.Dial(ipB, 80)
	c.OnEstablished = func() { c.Send(make([]byte, 16*MSS)) }
	sim.RunUntil(30 * time.Second)
	if client.FastRetransmits != 0 {
		t.Fatalf("spurious fast retransmits: %d", client.FastRetransmits)
	}
}
