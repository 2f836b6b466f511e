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
		c.Sink = sinkFunc(func(b []byte) { _ = c.Send(b) })
	}); err != nil {
		t.Fatal(err)
	}
	cc, err := client.Dial(ipB, 7)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	cc.OnEstablished = func() { _ = cc.Send([]byte("probe")) }
	cc.Sink = sinkFunc(func(b []byte) { got += len(b) })
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
	c.Sink = sinkFunc(func([]byte) { t.Errorf("%s: Sink fired", who) })
	c.OnClose = func(err error) { t.Errorf("%s: OnClose(%v) fired", who, err) }
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

// TestForgetRecyclesRecords opens and forgets one echo connection per
// cycle: every cycle after the first must hand out the same records
// again, zeroed.
func TestForgetRecyclesRecords(t *testing.T) {
	sim := eventsim.New(6)
	client, server := pair(t, sim, 50*time.Microsecond)
	var first [2]*Conn
	for i := 0; i < 100; i++ {
		if i > 0 {
			delete(server.listeners, 7)
		}
		cc, sc := echoExchange(t, sim, client, server)
		if i == 0 {
			first = [2]*Conn{cc, sc}
		} else if cc != first[0] || sc != first[1] {
			t.Fatalf("cycle %d: the forgotten records were not handed out again", i)
		}
		client.Forget()
		server.Forget()
		if cc.State() != StateClosed || cc.stack != nil {
			t.Fatalf("cycle %d: a forgotten record was not zeroed", i)
		}
	}
}

// TestPoisonedRecordPanics checks the SetPoison contract: a record that a
// poisoning Forget dropped is never handed out again, and any method
// call on it panics.
func TestPoisonedRecordPanics(t *testing.T) {
	sim := eventsim.New(7)
	client, server := pair(t, sim, 50*time.Microsecond)
	client.SetPoison(true)
	cc, _ := echoExchange(t, sim, client, server)
	client.Forget()
	if next, err := client.Dial(ipB, 7); err != nil || next == cc {
		t.Fatalf("dial after a poisoning Forget = %p, %v; want a fresh record", next, err)
	}
	for name, call := range map[string]func(){
		"State": func() { cc.State() },
		"Send":  func() { _ = cc.Send([]byte("x")) },
		"Close": func() { cc.Close() },
		"Arena": func() { cc.Arena() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a poisoned record did not panic", name)
				}
			}()
			call()
		}()
	}
}

// TestResetRewindsStack drives traffic through a stack, resets it and
// checks that a second exchange sends the same frames as on a stack that
// never carried traffic.
func TestResetRewindsStack(t *testing.T) {
	exchange := func(reset bool) [][]byte {
		sim := eventsim.New(8)
		client, server := pair(t, sim, 50*time.Microsecond)
		if reset {
			echoExchange(t, sim, client, server)
			client.Dial(ipB, 9) // left half-open: its SYN is never answered
			sim.Reset(8)
			client.Reset()
			server.Reset()
			delete(server.listeners, 7)
		}
		var sent sentFrames
		sent.tap(client.nic)
		echoExchange(t, sim, client, server)
		return sent.frames
	}
	want, got := exchange(false), exchange(true)
	if len(got) != len(want) {
		t.Fatalf("reset stack sent %d frames, fresh stack %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("frame %d differs between a reset and a fresh stack", i)
		}
	}
}
