package testbed

import (
	"fmt"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/faults"
	"github.com/browsermetric/browsermetric/internal/httpsim"
	"github.com/browsermetric/browsermetric/internal/wssim"
)

func TestContainerPageServed(t *testing.T) {
	tb := New(Config{Seed: 1})
	var body []byte
	c, err := tb.Client.Dial(tb.ServerAddr, HTTPPort)
	if err != nil {
		t.Fatal(err)
	}
	cc := httpsim.NewClientConn(c)
	c.OnEstablished = func() {
		cc.RoundTrip(&httpsim.Request{Method: "GET", Target: "/container.html"}, func(r *httpsim.Response) {
			body = r.Body
		})
	}
	tb.Sim.RunUntil(5 * time.Second)
	if len(body) == 0 || string(body[:6]) != "<html>" {
		t.Fatalf("container body = %q", body)
	}
}

func TestProbeEndpoints(t *testing.T) {
	tb := New(Config{Seed: 2})
	var getBody, postBody string
	c, _ := tb.Client.Dial(tb.ServerAddr, HTTPPort)
	cc := httpsim.NewClientConn(c)
	c.OnEstablished = func() {
		cc.RoundTrip(&httpsim.Request{Method: "GET", Target: "/probe"}, func(r *httpsim.Response) {
			getBody = string(r.Body)
			cc.RoundTrip(&httpsim.Request{Method: "POST", Target: "/probe", Body: []byte("x")}, func(r2 *httpsim.Response) {
				postBody = string(r2.Body)
			})
		})
	}
	tb.Sim.RunUntil(5 * time.Second)
	if getBody != "pong" || postBody != "post-ok" {
		t.Fatalf("bodies = %q %q", getBody, postBody)
	}
}

func TestServerDelayDominatesRTT(t *testing.T) {
	tb := New(Config{Seed: 3})
	var sent, got time.Duration
	c, _ := tb.Client.Dial(tb.ServerAddr, TCPEchoPort)
	c.OnEstablished = func() {
		sent = tb.Sim.Now()
		c.Send([]byte("ping"))
	}
	c.OnData = func([]byte) { got = tb.Sim.Now() }
	tb.Sim.RunUntil(5 * time.Second)
	rtt := got - sent
	if rtt < 50*time.Millisecond || rtt > 51*time.Millisecond {
		t.Fatalf("echo RTT = %v, want ~50ms", rtt)
	}
	if tb.RTTBase() != 50*time.Millisecond {
		t.Fatalf("RTTBase = %v", tb.RTTBase())
	}
}

func TestHandshakeAlsoDelayed(t *testing.T) {
	// The SYN-ACK crosses the delayed server NIC, so connection setup
	// costs ~50 ms — the Table 3 mechanism.
	tb := New(Config{Seed: 4})
	var established time.Duration
	start := tb.Sim.Now()
	c, _ := tb.Client.Dial(tb.ServerAddr, HTTPPort)
	c.OnEstablished = func() { established = tb.Sim.Now() }
	tb.Sim.RunUntil(5 * time.Second)
	if d := established - start; d < 50*time.Millisecond || d > 51*time.Millisecond {
		t.Fatalf("handshake took %v, want ~50ms", d)
	}
}

func TestWebSocketEcho(t *testing.T) {
	tb := New(Config{Seed: 5})
	var echoed string
	c, _ := tb.Client.Dial(tb.ServerAddr, WSPort)
	c.OnEstablished = func() {
		ws, _ := new(wssim.Client).Dial(c, "server", "/")
		ws.OnOpen = func() { ws.Send(wssim.OpText, []byte("hello")) }
		ws.OnMessage = func(_ wssim.Opcode, p []byte) { echoed = string(p) }
	}
	tb.Sim.RunUntil(5 * time.Second)
	if echoed != "hello" {
		t.Fatalf("echoed = %q", echoed)
	}
}

func TestUDPEcho(t *testing.T) {
	tb := New(Config{Seed: 6})
	var echoed string
	tb.Client.ListenUDP(41000, func(_ netip.Addr, _ uint16, _ []byte) {})
	tb.Client.CloseUDP(41000)
	tb.Client.ListenUDP(41000, func(_ netip.Addr, _ uint16, p []byte) { echoed = string(p) })
	tb.Client.SendUDP(tb.ServerAddr, 41000, UDPEchoPort, []byte("dgram"))
	tb.Sim.RunUntil(5 * time.Second)
	if echoed != "dgram" {
		t.Fatalf("echoed = %q", echoed)
	}
}

func TestCaptureSeesTraffic(t *testing.T) {
	tb := New(Config{Seed: 7})
	c, _ := tb.Client.Dial(tb.ServerAddr, TCPEchoPort)
	c.OnEstablished = func() { c.Send([]byte("x")) }
	tb.Sim.RunUntil(5 * time.Second)
	if len(tb.Cap.Records()) < 4 { // SYN, SYN-ACK, ACK, data, echo, acks
		t.Fatalf("capture has %d records", len(tb.Cap.Records()))
	}
	pairs := tb.Cap.MatchRTT(TCPEchoPort)
	if len(pairs) != 1 || pairs[0].RTT() < 50*time.Millisecond {
		t.Fatalf("pairs = %+v", pairs)
	}
}

func TestConfigOverrides(t *testing.T) {
	tb := New(Config{Seed: 8, ServerDelay: 10 * time.Millisecond, LinkRate: 1_000_000_000, Propagation: time.Microsecond})
	var sent, got time.Duration
	c, _ := tb.Client.Dial(tb.ServerAddr, TCPEchoPort)
	c.OnEstablished = func() { sent = tb.Sim.Now(); c.Send([]byte("p")) }
	c.OnData = func([]byte) { got = tb.Sim.Now() }
	tb.Sim.RunUntil(5 * time.Second)
	if rtt := got - sent; rtt < 10*time.Millisecond || rtt > 11*time.Millisecond {
		t.Fatalf("RTT = %v with 10ms server delay", rtt)
	}
}

func TestAdvance(t *testing.T) {
	tb := New(Config{Seed: 9})
	tb.Advance(42 * time.Second)
	if tb.Sim.Now() != 42*time.Second {
		t.Fatalf("Now = %v", tb.Sim.Now())
	}
}

// wsEchoTrace dials the WebSocket echo service on tb, echoes one message
// and returns every frame the client captured, with its timestamp.
func wsEchoTrace(t *testing.T, tb *Testbed) []string {
	t.Helper()
	c, err := tb.Client.Dial(tb.ServerAddr, WSPort)
	if err != nil {
		t.Fatal(err)
	}
	c.OnEstablished = func() {
		ws, _ := new(wssim.Client).Dial(c, "server", "/")
		ws.OnOpen = func() { ws.Send(wssim.OpText, []byte("hello")) }
	}
	tb.Sim.RunUntil(5 * time.Second)
	var out []string
	for _, r := range tb.Cap.Records() {
		out = append(out, fmt.Sprintf("%v %v %x", r.Time, r.Dir, r.Data))
	}
	return out
}

// TestResetTestbedComesBackAsNew resets a testbed in the middle of an
// exchange, with frames in flight on a lossy, delayed path, and checks
// that it captures what a testbed from New captures.
func TestResetTestbedComesBackAsNew(t *testing.T) {
	cfg := Config{Seed: 3}
	want := wsEchoTrace(t, New(cfg))

	tb := New(Config{Seed: 9, ServerDelay: 5 * time.Millisecond, LossRate: 0.2, Faults: faults.Congested})
	c, _ := tb.Client.Dial(tb.ServerAddr, HTTPPort)
	c.OnEstablished = func() { _ = c.Send([]byte("GET / HTTP/1.1\r\n\r\n")) }
	tb.NextUDPPort()
	tb.Sim.RunUntil(7 * time.Millisecond)
	tb.Reset(cfg)
	if got := wsEchoTrace(t, tb); !reflect.DeepEqual(got, want) {
		t.Fatalf("a testbed reset to the config captured\n%v\nwant\n%v", got, want)
	}
	if p := tb.NextUDPPort(); p != udpPortBase {
		t.Fatalf("first UDP port after the reset = %d, want %d", p, udpPortBase)
	}
}
