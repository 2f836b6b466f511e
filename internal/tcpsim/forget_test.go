package tcpsim

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/eventsim"
	"github.com/browsermetric/browsermetric/internal/netsim"
)

// echoExchange dials an echo service on server, sends one message, runs
// the simulator dry and returns both ends of the connection.
func echoExchange(t *testing.T, sim *eventsim.Simulator, client, server *Stack) (cc, sc *Conn) {
	t.Helper()
	if _, err := server.Listen(7, func(c *Conn) {
		sc = c
		c.OnData = func(b []byte) { _ = c.Send(b) }
	}); err != nil {
		t.Fatal(err)
	}
	cc, err := client.Dial(ipB, 7)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	cc.OnEstablished = func() { _ = cc.Send([]byte("probe")) }
	cc.OnData = func(b []byte) { got += len(b) }
	sim.Run()
	if got != len("probe") || sc == nil {
		t.Fatalf("echo exchange: got %d bytes back, server conn %v", got, sc)
	}
	if !client.Quiescent() || !server.Quiescent() {
		t.Fatal("stacks not quiescent after the exchange")
	}
	return cc, sc
}

// failOnCallback installs callbacks that fail the test if they fire.
func failOnCallback(t *testing.T, c *Conn, who string) {
	c.OnEstablished = func() { t.Errorf("%s: OnEstablished fired", who) }
	c.OnData = func([]byte) { t.Errorf("%s: OnData fired", who) }
	c.OnClose = func() { t.Errorf("%s: OnClose fired", who) }
	c.OnReset = func() { t.Errorf("%s: OnReset fired", who) }
}

// sentFrames records every frame nic sends, with its send time.
type sentFrames struct {
	frames [][]byte
	at     []time.Duration
}

func (f *sentFrames) tap(nic *netsim.NIC) {
	nic.AddTap(func(frame []byte, at time.Duration, dir netsim.Direction) {
		if dir == netsim.DirOut {
			f.frames = append(f.frames, frame)
			f.at = append(f.at, at)
		}
	})
}

func TestForgetDropsConnsSilently(t *testing.T) {
	sim := eventsim.New(3)
	client, server := pair(t, sim, 50*time.Microsecond)
	cc, sc := echoExchange(t, sim, client, server)
	var sent sentFrames
	sent.tap(client.nic)
	sent.tap(server.nic)
	failOnCallback(t, cc, "client")
	failOnCallback(t, sc, "server")

	client.Forget()
	server.Forget()
	sim.Run()
	if n := client.LiveConns() + server.LiveConns(); n != 0 {
		t.Fatalf("%d conns left after Forget", n)
	}
	if len(sent.frames) != 0 {
		t.Fatalf("Forget sent %d frames", len(sent.frames))
	}
	if cc.State() != StateClosed || sc.State() != StateClosed {
		t.Fatalf("states after Forget: client %v, server %v", cc.State(), sc.State())
	}
	if err := cc.Send([]byte("x")); err == nil {
		t.Fatal("Send on a forgotten conn succeeded")
	}
}

// lateSegmentRun forgets a finished echo connection on both stacks, then
// hands the client a copy of the server's echo segment, as a network that
// duplicated and delayed it would. It returns what each stack sent after
// the forget.
func lateSegmentRun(t *testing.T) (client, server sentFrames) {
	sim := eventsim.New(4)
	cs, ss := pair(t, sim, 50*time.Microsecond)
	var echo []byte
	cs.nic.AddTap(func(frame []byte, _ time.Duration, dir netsim.Direction) {
		if p, err := netsim.Decode(frame, 0); dir == netsim.DirIn && err == nil && p.TCP != nil && len(p.Payload) > 0 {
			echo = frame
		}
	})
	cc, sc := echoExchange(t, sim, cs, ss)
	if echo == nil {
		t.Fatal("no echo segment seen")
	}
	failOnCallback(t, cc, "client")
	failOnCallback(t, sc, "server")
	cs.Forget()
	ss.Forget()
	client.tap(cs.nic)
	server.tap(ss.nic)
	sim.Schedule(time.Second, func() { cs.nic.Receive(nil, echo) })
	sim.Run()
	return client, server
}

func TestLateSegmentForForgottenTuple(t *testing.T) {
	client, server := lateSegmentRun(t)
	if len(client.frames) != 1 {
		t.Fatalf("client sent %d frames for the late segment, want one RST", len(client.frames))
	}
	p, err := netsim.Decode(client.frames[0], 0)
	if err != nil || p.TCP == nil || p.TCP.Flags&netsim.FlagRST == 0 {
		t.Fatalf("client answered the late segment with %v (err %v), want an RST", p, err)
	}
	if len(server.frames) != 0 {
		t.Fatalf("server sent %d frames in reply to the RST, want none", len(server.frames))
	}

	client2, server2 := lateSegmentRun(t)
	for _, pair := range [][2]sentFrames{{client, client2}, {server, server2}} {
		a, b := pair[0], pair[1]
		if len(a.frames) != len(b.frames) {
			t.Fatalf("executions sent %d and %d frames", len(a.frames), len(b.frames))
		}
		for i := range a.frames {
			if !bytes.Equal(a.frames[i], b.frames[i]) || a.at[i] != b.at[i] {
				t.Fatalf("frame %d differs between executions", i)
			}
		}
	}
}

func TestDialReportsPortExhaustion(t *testing.T) {
	sim := eventsim.New(5)
	client, _ := pair(t, sim, 50*time.Microsecond)
	// Fill the table directly: 1<<14 real dials would cost a table scan
	// each.
	for i := 0; i < 1<<14; i++ {
		client.conns[fourTuple{localPort: uint16(ephemeralBase + i), remotePort: 80, remote: ipB.As4()}] = &Conn{}
	}
	c, err := client.Dial(ipB, 80)
	if !errors.Is(err, errPortsExhausted) || c != nil {
		t.Fatalf("dial with every ephemeral port busy = %v, %v; want errPortsExhausted", c, err)
	}
	client.Forget()
	if _, err := client.Dial(ipB, 80); err != nil {
		t.Fatalf("dial after Forget: %v", err)
	}
}
