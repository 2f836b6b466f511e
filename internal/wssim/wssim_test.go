package wssim

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"github.com/browsermetric/browsermetric/internal/eventsim"
	"github.com/browsermetric/browsermetric/internal/netsim"
	"github.com/browsermetric/browsermetric/internal/tcpsim"
)

// sinkFunc adapts a function to tcpsim.DataSink.
type sinkFunc func([]byte)

func (f sinkFunc) ConnData(_ *tcpsim.Conn, b []byte) { f(b) }

func TestFrameRoundTripUnmasked(t *testing.T) {
	in := &Frame{Fin: true, Opcode: OpBinary, Payload: []byte("probe")}
	b := in.Marshal()
	out, n, err := ParseFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b) {
		t.Fatalf("consumed %d of %d", n, len(b))
	}
	if !out.Fin || out.Opcode != OpBinary || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("frame = %+v", out)
	}
}

func TestFrameRoundTripMasked(t *testing.T) {
	in := &Frame{Fin: true, Opcode: OpText, Masked: true, MaskKey: [4]byte{1, 2, 3, 4}, Payload: []byte("masked payload")}
	b := in.Marshal()
	// On the wire the payload must differ from the plaintext.
	if bytes.Contains(b, []byte("masked payload")) {
		t.Fatal("masked frame leaks plaintext")
	}
	out, _, err := ParseFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(out.Payload) != "masked payload" {
		t.Fatalf("unmasked payload = %q", out.Payload)
	}
}

func TestFrameLength126(t *testing.T) {
	payload := make([]byte, 300)
	for i := range payload {
		payload[i] = byte(i)
	}
	in := &Frame{Fin: true, Opcode: OpBinary, Payload: payload}
	b := in.Marshal()
	if b[1]&0x7f != 126 {
		t.Fatalf("length marker = %d, want 126", b[1]&0x7f)
	}
	out, _, err := ParseFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Payload, payload) {
		t.Fatal("payload mismatch at 16-bit length")
	}
}

func TestFrameLength127(t *testing.T) {
	payload := make([]byte, 70_000)
	in := &Frame{Fin: true, Opcode: OpBinary, Payload: payload}
	b := in.Marshal()
	if b[1]&0x7f != 127 {
		t.Fatalf("length marker = %d, want 127", b[1]&0x7f)
	}
	out, _, err := ParseFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Payload) != 70_000 {
		t.Fatalf("payload length = %d", len(out.Payload))
	}
}

func TestParseFrameIncomplete(t *testing.T) {
	full := (&Frame{Fin: true, Opcode: OpBinary, Payload: []byte("0123456789")}).Marshal()
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := ParseFrame(full[:cut]); !errors.Is(err, ErrIncomplete) {
			t.Fatalf("cut=%d: err = %v, want ErrIncomplete", cut, err)
		}
	}
}

func TestParseFrameRejectsRSV(t *testing.T) {
	b := (&Frame{Fin: true, Opcode: OpBinary}).Marshal()
	b[0] |= 0x40
	if _, _, err := ParseFrame(b); !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
}

func TestAcceptKeyRFCVector(t *testing.T) {
	// The worked example from RFC 6455 section 1.3.
	got := AcceptKey("dGhlIHNhbXBsZSBub25jZQ==")
	want := "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
	if got != want {
		t.Fatalf("AcceptKey = %q, want %q", got, want)
	}
}

// wsPair builds client/server stacks over a switch.
func wsPair(t testing.TB, sim *eventsim.Simulator, prop time.Duration) (*tcpsim.Stack, *tcpsim.Stack, netip.Addr) {
	t.Helper()
	macA := netsim.MAC{2, 0, 0, 0, 0, 1}
	macB := netsim.MAC{2, 0, 0, 0, 0, 2}
	ipA := netip.MustParseAddr("10.0.0.1")
	ipB := netip.MustParseAddr("10.0.0.2")
	nicA := netsim.NewNIC(sim, "a", macA, ipA)
	nicB := netsim.NewNIC(sim, "b", macB, ipB)
	sw := netsim.NewSwitch(sim, time.Microsecond)
	la := netsim.NewLink(sim, 100_000_000, prop)
	lb := netsim.NewLink(sim, 100_000_000, prop)
	nicA.Connect(la)
	sw.Connect(la)
	nicB.Connect(lb)
	sw.Connect(lb)
	table := map[netip.Addr]netsim.MAC{ipA: macA, ipB: macB}
	resolve := func(a netip.Addr) (netsim.MAC, bool) { m, ok := table[a]; return m, ok }
	sa, sb := tcpsim.NewStack(sim, nicA), tcpsim.NewStack(sim, nicB)
	sa.Resolve, sb.Resolve = resolve, resolve
	return sa, sb, ipB
}

func TestEndToEndEcho(t *testing.T) {
	sim := eventsim.New(1)
	client, server, serverIP := wsPair(t, sim, 50*time.Microsecond)

	if err := Serve(server, 8080, func(c *Conn) {
		c.OnMessage = func(op Opcode, p []byte) { c.Send(op, p) }
	}); err != nil {
		t.Fatal(err)
	}

	var echoed []byte
	opened := false
	tc, _ := client.Dial(serverIP, 8080)
	tc.OnEstablished = func() {
		ws, err := new(Client).Dial(tc, "server", "/ws")
		if err != nil {
			t.Fatal(err)
		}
		ws.OnOpen = func() {
			opened = true
			ws.Send(OpBinary, []byte("ping-payload"))
		}
		ws.OnMessage = func(_ Opcode, p []byte) { echoed = p }
	}
	sim.RunUntil(10 * time.Second)

	if !opened {
		t.Fatal("handshake never completed")
	}
	if string(echoed) != "ping-payload" {
		t.Fatalf("echo = %q", echoed)
	}
}

func TestServerRejectsNonWebSocket(t *testing.T) {
	sim := eventsim.New(2)
	client, server, serverIP := wsPair(t, sim, 0)
	Serve(server, 8080, func(c *Conn) {})

	var raw []byte
	tc, _ := client.Dial(serverIP, 8080)
	tc.OnEstablished = func() {
		tc.Sink = sinkFunc(func(b []byte) { raw = append(raw, b...) })
		tc.Send([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"))
	}
	sim.RunUntil(10 * time.Second)
	if !bytes.Contains(raw, []byte("400")) {
		t.Fatalf("response = %q, want 400", raw)
	}
}

func TestPingGetsPong(t *testing.T) {
	sim := eventsim.New(3)
	client, server, serverIP := wsPair(t, sim, 0)
	var serverConn *Conn
	Serve(server, 8080, func(c *Conn) { serverConn = c })

	var pongs int
	tc, _ := client.Dial(serverIP, 8080)
	tc.OnEstablished = func() {
		ws, _ := new(Client).Dial(tc, "s", "/")
		ws.OnOpen = func() {
			// Client sends a ping; the conn auto-pongs on the peer side.
			f := &Frame{Fin: true, Opcode: OpPing, Masked: true, Payload: []byte("hb")}
			tc.Send(f.Marshal())
		}
		ws.OnMessage = func(op Opcode, p []byte) {
			if op == OpPong && string(p) == "hb" {
				pongs++
			}
		}
	}
	sim.RunUntil(10 * time.Second)
	if pongs != 1 {
		t.Fatalf("pongs = %d, want 1", pongs)
	}
	_ = serverConn
}

func TestCloseHandshake(t *testing.T) {
	sim := eventsim.New(4)
	client, server, serverIP := wsPair(t, sim, 0)
	serverClosed := false
	Serve(server, 8080, func(c *Conn) {
		c.TCP.OnClose = func(err error) { serverClosed = err == nil }
	})
	tc, _ := client.Dial(serverIP, 8080)
	tc.OnEstablished = func() {
		ws, _ := new(Client).Dial(tc, "s", "/")
		ws.OnOpen = func() {
			ws.sframe = Frame{Fin: true, Opcode: OpClose, Masked: true}
			_ = ws.TCP.Send(ws.sframe.Marshal())
			ws.TCP.Close()
		}
	}
	sim.RunUntil(10 * time.Second)
	if !serverClosed {
		t.Fatal("the server's TCP conn never closed in order")
	}
}

func TestMultipleMessagesOneSegment(t *testing.T) {
	// Two frames delivered in a single TCP segment must both surface.
	sim := eventsim.New(5)
	client, server, serverIP := wsPair(t, sim, 0)
	var got []string
	Serve(server, 8080, func(c *Conn) {
		c.OnMessage = func(_ Opcode, p []byte) { got = append(got, string(p)) }
	})
	tc, _ := client.Dial(serverIP, 8080)
	tc.OnEstablished = func() {
		ws, _ := new(Client).Dial(tc, "s", "/")
		ws.OnOpen = func() {
			f1 := (&Frame{Fin: true, Opcode: OpBinary, Masked: true, Payload: []byte("one")}).Marshal()
			f2 := (&Frame{Fin: true, Opcode: OpBinary, Masked: true, MaskKey: [4]byte{9, 9, 9, 9}, Payload: []byte("two")}).Marshal()
			tc.Send(append(f1, f2...))
		}
	}
	sim.RunUntil(10 * time.Second)
	if len(got) != 2 || got[0] != "one" || got[1] != "two" {
		t.Fatalf("messages = %v", got)
	}
}

// Property: frames round-trip for arbitrary payloads and both masking modes.
func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(payload []byte, masked bool, key [4]byte) bool {
		in := &Frame{Fin: true, Opcode: OpBinary, Masked: masked, MaskKey: key, Payload: payload}
		b := in.Marshal()
		out, n, err := ParseFrame(b)
		if err != nil || n != len(b) {
			return false
		}
		return bytes.Equal(out.Payload, payload) && out.Masked == masked
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: masking is an involution — the wire bytes differ from the
// payload (when non-trivial key and payload) yet decode restores it.
func TestQuickMaskingInvolution(t *testing.T) {
	f := func(payload []byte) bool {
		in := &Frame{Fin: true, Opcode: OpText, Masked: true, MaskKey: [4]byte{0xaa, 0xbb, 0xcc, 0xdd}, Payload: payload}
		out, _, err := ParseFrame(in.Marshal())
		return err == nil && bytes.Equal(out.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestConnReservesDeclaredFrame: once a frame header is in, the receive
// buffer grows once to the frame's declared length instead of doubling
// as the payload's segments arrive, and a declared length the bytes
// never fill reserves at most maxReserve past them.
func TestConnReservesDeclaredFrame(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 256<<10)
	msg := (&Frame{Fin: true, Opcode: OpBinary, Payload: payload}).Marshal()
	var got []byte
	c := &Conn{upgraded: true, OnMessage: func(_ Opcode, p []byte) { got = append([]byte(nil), p...) }}
	growths := 0
	for rest := msg; len(rest) > 0; {
		n := min(1460, len(rest))
		before := cap(c.buf)
		c.ConnData(nil, rest[:n])
		rest = rest[n:]
		if cap(c.buf) != before {
			growths++
		}
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("message not delivered intact")
	}
	// The first segment holds the header, so it both starts the buffer
	// and reserves the rest of the frame.
	if growths != 1 || cap(c.buf) < len(msg) {
		t.Errorf("buffer grew on %d deliveries to cap %d, want 1 delivery to at least %d", growths, cap(c.buf), len(msg))
	}

	c = &Conn{upgraded: true}
	hdr := []byte{0x82, 127, 0, 0, 0, 0, 0x40, 0, 0, 0} // binary, 1 GiB
	c.ConnData(nil, hdr)
	if cap(c.buf) > 2*maxReserve {
		t.Errorf("a 1 GiB frame header reserved cap %d, want at most about %d", cap(c.buf), maxReserve)
	}
}
