package tcpsim

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"github.com/browsermetric/browsermetric/internal/eventsim"
	"github.com/browsermetric/browsermetric/internal/netsim"
)

var (
	macA = netsim.MAC{0x02, 0, 0, 0, 0, 0x0a}
	macB = netsim.MAC{0x02, 0, 0, 0, 0, 0x0b}
	ipA  = netip.MustParseAddr("192.168.1.10")
	ipB  = netip.MustParseAddr("192.168.1.20")
)

// pair builds two stacks joined by a switch over 100 Mbps links.
func pair(t testing.TB, sim *eventsim.Simulator, prop time.Duration) (*Stack, *Stack) {
	t.Helper()
	nicA := netsim.NewNIC(sim, "a", macA, ipA)
	nicB := netsim.NewNIC(sim, "b", macB, ipB)
	sw := netsim.NewSwitch(sim, 2*time.Microsecond)
	la := netsim.NewLink(sim, 100_000_000, prop)
	lb := netsim.NewLink(sim, 100_000_000, prop)
	nicA.Connect(la)
	sw.Connect(la)
	nicB.Connect(lb)
	sw.Connect(lb)
	table := map[netip.Addr]netsim.MAC{ipA: macA, ipB: macB}
	resolve := func(a netip.Addr) (netsim.MAC, bool) { m, ok := table[a]; return m, ok }
	sa := NewStack(sim, nicA)
	sb := NewStack(sim, nicB)
	sa.Resolve = resolve
	sb.Resolve = resolve
	return sa, sb
}

func TestHandshake(t *testing.T) {
	sim := eventsim.New(1)
	client, server := pair(t, sim, 100*time.Microsecond)

	var serverConn *Conn
	if _, err := server.Listen(80, func(c *Conn) { serverConn = c }); err != nil {
		t.Fatal(err)
	}
	established := false
	c, err := client.Dial(ipB, 80)
	if err != nil {
		t.Fatal(err)
	}
	c.OnEstablished = func() { established = true }
	sim.Run()

	if !established {
		t.Fatal("client never established")
	}
	if serverConn == nil || serverConn.State() != StateEstablished {
		t.Fatalf("server conn = %v", serverConn)
	}
	if c.State() != StateEstablished {
		t.Fatalf("client state = %v", c.State())
	}
	if c.tuple.remotePort != 80 || serverConn.tuple.remotePort != c.tuple.localPort {
		t.Fatalf("port mismatch: client %d->%d server sees %d", c.tuple.localPort, c.tuple.remotePort, serverConn.tuple.remotePort)
	}
	if serverConn.tuple.remote != ipA.As4() {
		t.Fatalf("server remote = %v", netip.AddrFrom4(serverConn.tuple.remote))
	}
}

func TestEchoData(t *testing.T) {
	sim := eventsim.New(2)
	client, server := pair(t, sim, 50*time.Microsecond)

	server.Listen(7, func(c *Conn) {
		c.Sink = sinkFunc(func(b []byte) { c.Send(b) }) // echo
	})
	var got []byte
	c, _ := client.Dial(ipB, 7)
	c.OnEstablished = func() { c.Send([]byte("hello, tcp")) }
	c.Sink = sinkFunc(func(b []byte) { got = append(got, b...) })
	sim.Run()

	if string(got) != "hello, tcp" {
		t.Fatalf("echo = %q", got)
	}
}

func TestLargeTransferSegmented(t *testing.T) {
	sim := eventsim.New(3)
	client, server := pair(t, sim, 10*time.Microsecond)

	payload := make([]byte, 10*MSS+123)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	var got []byte
	server.Listen(9, func(c *Conn) {
		c.Sink = sinkFunc(func(b []byte) { got = append(got, b...) })
	})
	c, _ := client.Dial(ipB, 9)
	c.OnEstablished = func() { c.Send(payload) }
	sim.Run()

	if !bytes.Equal(got, payload) {
		t.Fatalf("received %d bytes, want %d (content match: %v)", len(got), len(payload), bytes.Equal(got, payload))
	}
}

func TestHandshakeTakesOneRTT(t *testing.T) {
	sim := eventsim.New(4)
	prop := 25 * time.Millisecond // one-way per link; RTT ~ 100ms via 2 links
	client, server := pair(t, sim, prop)
	server.Listen(80, func(c *Conn) {})

	start := sim.Now()
	var establishedAt time.Duration
	c, _ := client.Dial(ipB, 80)
	c.OnEstablished = func() { establishedAt = sim.Now() }
	sim.RunUntil(sim.Now() + time.Second)

	rtt := 4 * prop // client->switch->server and back
	elapsed := establishedAt - start
	if elapsed < rtt || elapsed > rtt+5*time.Millisecond {
		t.Fatalf("handshake took %v, want ~%v", elapsed, rtt)
	}
}

func TestGracefulClose(t *testing.T) {
	sim := eventsim.New(5)
	client, server := pair(t, sim, 10*time.Microsecond)

	var serverClosed, clientClosed bool
	server.Listen(80, func(c *Conn) {
		c.Sink = sinkFunc(func(b []byte) {
			c.Send([]byte("bye"))
			c.Close()
		})
		c.OnClose = func(error) { serverClosed = true }
	})
	c, _ := client.Dial(ipB, 80)
	c.OnEstablished = func() { c.Send([]byte("hi")) }
	c.Sink = sinkFunc(func(b []byte) { c.Close() })
	c.OnClose = func(error) { clientClosed = true }
	sim.RunUntil(10 * time.Second)

	if !serverClosed || !clientClosed {
		t.Fatalf("serverClosed=%v clientClosed=%v", serverClosed, clientClosed)
	}
	if len(client.conns) != 0 || len(server.conns) != 0 {
		t.Fatalf("connections leaked: client=%d server=%d", len(client.conns), len(server.conns))
	}
}

func TestRetransmissionRecoversLoss(t *testing.T) {
	sim := eventsim.New(6)
	client, server := pair(t, sim, 10*time.Microsecond)

	// Drop the first data transmission from the client (after handshake).
	dropped := 0
	sent := 0
	client.DropTx = func() bool {
		sent++
		if sent == 3 && dropped == 0 { // SYN=1, ACK=2, first data=3
			dropped++
			return true
		}
		return false
	}
	var got []byte
	server.Listen(80, func(c *Conn) {
		c.Sink = sinkFunc(func(b []byte) { got = append(got, b...) })
	})
	c, _ := client.Dial(ipB, 80)
	c.OnEstablished = func() { c.Send([]byte("retransmit me")) }
	sim.RunUntil(10 * time.Second)

	if string(got) != "retransmit me" {
		t.Fatalf("got %q after loss", got)
	}
	if client.SegmentsRetransmitted == 0 {
		t.Fatal("no retransmission recorded")
	}
	if dropped != 1 {
		t.Fatalf("dropped %d segments, want 1", dropped)
	}
}

func TestOutOfOrderReassembly(t *testing.T) {
	// Directly exercise the receiver path: deliver seq 2 before seq 1.
	sim := eventsim.New(7)
	client, server := pair(t, sim, 0)
	var got []byte
	server.Listen(80, func(c *Conn) {
		c.Sink = sinkFunc(func(b []byte) { got = append(got, b...) })
	})
	c, _ := client.Dial(ipB, 80)
	c.OnEstablished = func() {}
	sim.Run()

	// Forge out-of-order arrival through the connection's ingest machinery.
	var sc *Conn
	for _, conn := range server.conns {
		sc = conn
	}
	if sc == nil {
		t.Fatal("no server conn")
	}
	base := sc.rcvNxt
	sc.ingestData(base+3, []byte("def"))
	sc.drainInOrder(false)
	if len(got) != 0 {
		t.Fatalf("delivered out-of-order data early: %q", got)
	}
	sc.ingestData(base, []byte("abc"))
	sc.drainInOrder(false)
	if string(got) != "abcdef" {
		t.Fatalf("reassembled = %q, want abcdef", got)
	}
}

func TestDuplicateDataIgnored(t *testing.T) {
	sim := eventsim.New(8)
	client, server := pair(t, sim, 0)
	var got []byte
	server.Listen(80, func(c *Conn) {
		c.Sink = sinkFunc(func(b []byte) { got = append(got, b...) })
	})
	c, _ := client.Dial(ipB, 80)
	sim.Run()
	var sc *Conn
	for _, conn := range server.conns {
		sc = conn
	}
	base := sc.rcvNxt
	sc.ingestData(base, []byte("xyz"))
	sc.drainInOrder(false)
	sc.ingestData(base, []byte("xyz")) // retransmitted duplicate
	sc.drainInOrder(false)
	if string(got) != "xyz" {
		t.Fatalf("got %q, want xyz exactly once", got)
	}
	_ = c
}

func TestConnectionRefusedRST(t *testing.T) {
	sim := eventsim.New(9)
	client, _ := pair(t, sim, 10*time.Microsecond)
	reset := false
	c, _ := client.Dial(ipB, 4444) // nobody listens
	c.OnClose = func(err error) { reset = errors.Is(err, ErrReset) }
	sim.Run()
	if !reset {
		t.Fatal("expected RST for refused connection")
	}
	if c.State() != StateClosed {
		t.Fatalf("state = %v, want CLOSED", c.State())
	}
}

func TestListenPortConflict(t *testing.T) {
	sim := eventsim.New(10)
	_, server := pair(t, sim, 0)
	if _, err := server.Listen(80, func(*Conn) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Listen(80, func(*Conn) {}); err == nil {
		t.Fatal("expected error for duplicate listen")
	}
	delete(server.listeners, 80)
	if _, err := server.Listen(80, func(*Conn) {}); err != nil {
		t.Fatalf("listen after close: %v", err)
	}
}

func TestSendBeforeEstablishedFails(t *testing.T) {
	sim := eventsim.New(11)
	client, server := pair(t, sim, time.Millisecond)
	server.Listen(80, func(*Conn) {})
	c, _ := client.Dial(ipB, 80)
	if err := c.Send([]byte("early")); err == nil {
		t.Fatal("expected error sending in SYN_SENT")
	}
	sim.Run()
}

func TestSendAfterCloseFails(t *testing.T) {
	sim := eventsim.New(12)
	client, server := pair(t, sim, 0)
	server.Listen(80, func(*Conn) {})
	c, _ := client.Dial(ipB, 80)
	sim.Run()
	c.Close()
	sim.Run()
	if err := c.Send([]byte("late")); err == nil {
		t.Fatal("expected error sending after close")
	}
}

func TestUDPDelivery(t *testing.T) {
	sim := eventsim.New(13)
	client, server := pair(t, sim, 10*time.Microsecond)
	var got []byte
	var gotSrc netip.Addr
	server.ListenUDP(53, func(src netip.Addr, srcPort uint16, payload []byte) {
		got = payload
		gotSrc = src
		server.SendUDP(src, 53, srcPort, []byte("pong"))
	})
	var reply []byte
	client.ListenUDP(5000, func(_ netip.Addr, _ uint16, payload []byte) { reply = payload })
	client.SendUDP(ipB, 5000, 53, []byte("ping"))
	sim.Run()
	if string(got) != "ping" || gotSrc != ipA {
		t.Fatalf("server got %q from %v", got, gotSrc)
	}
	if string(reply) != "pong" {
		t.Fatalf("client reply = %q", reply)
	}
}

// TestSendUDPRefusesOversize pins the datagram boundary on the send
// path: the largest payload one IPv4 datagram holds arrives whole, and
// one byte more returns ErrPayloadTooLarge with nothing on the wire.
func TestSendUDPRefusesOversize(t *testing.T) {
	sim := eventsim.New(15)
	client, server := pair(t, sim, 0)
	var got []int
	server.ListenUDP(53, func(_ netip.Addr, _ uint16, payload []byte) { got = append(got, len(payload)) })
	payload := make([]byte, netsim.MaxUDPPayload+1)
	if err := client.SendUDP(ipB, 5000, 53, payload[:netsim.MaxUDPPayload]); err != nil {
		t.Fatalf("%d-byte datagram: %v", netsim.MaxUDPPayload, err)
	}
	if err := client.SendUDP(ipB, 5000, 53, payload); !errors.Is(err, netsim.ErrPayloadTooLarge) {
		t.Fatalf("%d-byte datagram: err = %v, want ErrPayloadTooLarge", len(payload), err)
	}
	sim.Run()
	if len(got) != 1 || got[0] != netsim.MaxUDPPayload {
		t.Fatalf("server received payloads of %v bytes, want [%d]", got, netsim.MaxUDPPayload)
	}
}

// TestDialRejectsNonIPv4 checks that Dial refuses an address the IPv4
// conn table cannot key, instead of panicking, and opens nothing.
func TestDialRejectsNonIPv4(t *testing.T) {
	sim := eventsim.New(16)
	client, _ := pair(t, sim, 0)
	for _, dst := range []netip.Addr{{}, netip.MustParseAddr("2001:db8::1"), netip.MustParseAddr("::ffff:192.168.1.20")} {
		c, err := client.Dial(dst, 80)
		if err == nil || c != nil {
			t.Fatalf("Dial(%v) = %v, %v; want an error", dst, c, err)
		}
	}
	if n := client.LiveConns(); n != 0 {
		t.Fatalf("LiveConns = %d after refused dials, want 0", n)
	}
	if c, err := client.Dial(ipB, 80); err != nil || c.tuple.remote != ipB.As4() {
		t.Fatalf("Dial(%v) = %v, %v", ipB, c, err)
	}
}

func TestUDPPortConflict(t *testing.T) {
	sim := eventsim.New(14)
	_, server := pair(t, sim, 0)
	if err := server.ListenUDP(53, func(netip.Addr, uint16, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := server.ListenUDP(53, func(netip.Addr, uint16, []byte) {}); err == nil {
		t.Fatal("expected conflict error")
	}
}

func TestTwoSequentialConnections(t *testing.T) {
	sim := eventsim.New(15)
	client, server := pair(t, sim, 10*time.Microsecond)
	accepted := 0
	server.Listen(80, func(c *Conn) {
		accepted++
		c.Sink = sinkFunc(func(b []byte) { c.Send(b) })
	})
	for i := 0; i < 2; i++ {
		done := false
		c, _ := client.Dial(ipB, 80)
		c.OnEstablished = func() { c.Send([]byte("x")) }
		c.Sink = sinkFunc(func([]byte) { done = true; c.Close() })
		sim.RunUntil(sim.Now() + 5*time.Second)
		if !done {
			t.Fatalf("connection %d did not complete", i)
		}
	}
	if accepted != 2 {
		t.Fatalf("accepted = %d, want 2", accepted)
	}
}

func TestAbortSendsRST(t *testing.T) {
	sim := eventsim.New(16)
	client, server := pair(t, sim, 10*time.Microsecond)
	var serverReset bool
	server.Listen(80, func(c *Conn) {
		c.OnClose = func(err error) { serverReset = errors.Is(err, ErrReset) }
	})
	c, _ := client.Dial(ipB, 80)
	c.OnEstablished = func() { c.Abort() }
	sim.Run()
	if !serverReset {
		t.Fatal("server never saw RST")
	}
}

func TestStateString(t *testing.T) {
	states := []State{StateClosed, StateSynSent, StateSynReceived, StateEstablished, StateFinWait, StateCloseWait, StateLastAck, State(99)}
	for _, s := range states {
		if s.String() == "" {
			t.Fatalf("empty string for state %d", int(s))
		}
	}
}

func TestSeqArithmetic(t *testing.T) {
	if !seqLT(0xffffffff, 0) {
		t.Fatal("wraparound: 0xffffffff < 0 should hold")
	}
	if seqLT(0, 0) {
		t.Fatal("seqLT(0,0) should be false")
	}
	if !seqLE(5, 5) {
		t.Fatal("seqLE(5,5) should be true")
	}
	if seqLE(6, 5) {
		t.Fatal("seqLE(6,5) should be false")
	}
}

// Property: mod-2^32 ordering is consistent: a < a+delta for delta in
// (0, 2^31).
func TestQuickSeqOrdering(t *testing.T) {
	f := func(a uint32, d uint32) bool {
		delta := d%(1<<31-1) + 1
		return seqLT(a, a+delta) && seqLE(a, a+delta) && !seqLT(a+delta, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: arbitrary payloads (1..4*MSS bytes) arrive intact and in order.
func TestQuickTransferIntegrity(t *testing.T) {
	f := func(seed int64, raw []byte) bool {
		if len(raw) == 0 {
			raw = []byte{0}
		}
		if len(raw) > 4*MSS {
			raw = raw[:4*MSS]
		}
		sim := eventsim.New(seed)
		client, server := pair(t, sim, 10*time.Microsecond)
		var got []byte
		server.Listen(80, func(c *Conn) {
			c.Sink = sinkFunc(func(b []byte) { got = append(got, b...) })
		})
		c, _ := client.Dial(ipB, 80)
		payload := raw
		c.OnEstablished = func() { c.Send(payload) }
		sim.RunUntil(30 * time.Second)
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSimultaneousClose(t *testing.T) {
	// Both ends close at the same instant; both must reach CLOSED.
	sim := eventsim.New(17)
	client, server := pair(t, sim, time.Millisecond)
	var sc *Conn
	server.Listen(80, func(c *Conn) { sc = c })
	c, _ := client.Dial(ipB, 80)
	// Complete the handshake first (the server-side conn only exists once
	// the final ACK lands), then fire both FINs at the same instant.
	sim.RunUntil(sim.Now() + time.Second)
	if sc == nil || c.State() != StateEstablished {
		t.Fatalf("handshake incomplete: sc=%v state=%v", sc, c.State())
	}
	c.Close()
	sc.Close()
	sim.RunUntil(30 * time.Second)
	if c.State() != StateClosed || sc.State() != StateClosed {
		t.Fatalf("states after simultaneous close: %v / %v", c.State(), sc.State())
	}
	if len(client.conns) != 0 || len(server.conns) != 0 {
		t.Fatalf("connections leaked: %d / %d", len(client.conns), len(server.conns))
	}
}

func TestHalfCloseDataStillFlows(t *testing.T) {
	// Client closes its half; server can still deliver data before
	// closing (CLOSE_WAIT semantics).
	sim := eventsim.New(18)
	client, server := pair(t, sim, time.Millisecond)
	var got []byte
	server.Listen(80, func(c *Conn) {
		c.Sink = sinkFunc(func(b []byte) {
			// Receive request, respond AFTER the client's FIN arrives.
			sim.Schedule(20*time.Millisecond, func() {
				c.Send([]byte("late response"))
				c.Close()
			})
		})
	})
	c, _ := client.Dial(ipB, 80)
	c.Sink = sinkFunc(func(b []byte) { got = append(got, b...) })
	c.OnEstablished = func() {
		c.Send([]byte("request"))
		c.Close() // half-close immediately after sending
	}
	sim.RunUntil(30 * time.Second)
	if string(got) != "late response" {
		t.Fatalf("got %q after half-close", got)
	}
}
