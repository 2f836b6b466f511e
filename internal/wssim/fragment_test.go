package wssim

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/eventsim"
)

// SendFragmented transmits one message split into chunkSize-byte frames:
// an initial frame with the real opcode and FIN clear, continuations, and
// a final FIN continuation. The receiver reassembles into one OnMessage.
// The simulated browsers send whole frames; the tests drive fragment
// reassembly with it.
func (c *Conn) SendFragmented(op Opcode, payload []byte, chunkSize int) error {
	if chunkSize <= 0 {
		return fmt.Errorf("wssim: chunk size must be positive")
	}
	first := true
	for {
		n := len(payload)
		if n > chunkSize {
			n = chunkSize
		}
		c.sframe = Frame{
			Fin:     len(payload) <= chunkSize,
			Opcode:  OpContinuation,
			Payload: payload[:n],
		}
		if first {
			c.sframe.Opcode = op
			first = false
		}
		if c.client {
			c.sframe.Masked = true
			c.sframe.MaskKey = [4]byte{0x9a, 0xbc, 0xde, 0xf0}
		}
		fin := c.sframe.Fin
		if err := c.TCP.Send(c.sframe.MarshalArena(c.TCP.Arena())); err != nil {
			return err
		}
		payload = payload[n:]
		if fin {
			return nil
		}
	}
}

func TestFragmentedMessageReassembled(t *testing.T) {
	sim := eventsim.New(31)
	client, server, serverIP := wsPair(t, sim, 10*time.Microsecond)

	var gotOp Opcode
	var got []byte
	msgs := 0
	Serve(server, 8080, func(c *Conn) {
		c.OnMessage = func(op Opcode, p []byte) {
			gotOp, got = op, p
			msgs++
		}
	})

	payload := make([]byte, 1000)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	tc, _ := client.Dial(serverIP, 8080)
	tc.OnEstablished = func() {
		ws, _ := new(Client).Dial(tc, "s", "/")
		ws.OnOpen = func() {
			if err := ws.SendFragmented(OpBinary, payload, 300); err != nil {
				t.Errorf("SendFragmented: %v", err)
			}
		}
	}
	sim.RunUntil(10 * time.Second)

	if msgs != 1 {
		t.Fatalf("messages delivered = %d, want 1 (reassembled)", msgs)
	}
	if gotOp != OpBinary {
		t.Fatalf("opcode = %v, want binary (from the initial frame)", gotOp)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("reassembled %d bytes, match=%v", len(got), bytes.Equal(got, payload))
	}
}

func TestFragmentExactMultiple(t *testing.T) {
	sim := eventsim.New(32)
	client, server, serverIP := wsPair(t, sim, 0)
	var got []byte
	msgs := 0
	Serve(server, 8080, func(c *Conn) {
		c.OnMessage = func(_ Opcode, p []byte) { got = p; msgs++ }
	})
	payload := make([]byte, 600) // exactly 2 chunks of 300
	tc, _ := client.Dial(serverIP, 8080)
	tc.OnEstablished = func() {
		ws, _ := new(Client).Dial(tc, "s", "/")
		ws.OnOpen = func() { ws.SendFragmented(OpText, payload, 300) }
	}
	sim.RunUntil(10 * time.Second)
	if msgs != 1 || len(got) != 600 {
		t.Fatalf("msgs=%d len=%d", msgs, len(got))
	}
}

func TestSingleChunkFragmentedIsJustAFrame(t *testing.T) {
	sim := eventsim.New(33)
	client, server, serverIP := wsPair(t, sim, 0)
	msgs := 0
	Serve(server, 8080, func(c *Conn) {
		c.OnMessage = func(_ Opcode, _ []byte) { msgs++ }
	})
	tc, _ := client.Dial(serverIP, 8080)
	tc.OnEstablished = func() {
		ws, _ := new(Client).Dial(tc, "s", "/")
		ws.OnOpen = func() { ws.SendFragmented(OpBinary, []byte("tiny"), 100) }
	}
	sim.RunUntil(10 * time.Second)
	if msgs != 1 {
		t.Fatalf("msgs = %d", msgs)
	}
}

func TestStrayContinuationAborts(t *testing.T) {
	sim := eventsim.New(34)
	client, server, serverIP := wsPair(t, sim, 0)
	closed := false
	Serve(server, 8080, func(c *Conn) {
		c.OnClose = func() { closed = true }
		c.OnMessage = func(_ Opcode, _ []byte) {}
	})
	tc, _ := client.Dial(serverIP, 8080)
	tc.OnEstablished = func() {
		ws, _ := new(Client).Dial(tc, "s", "/")
		ws.OnOpen = func() {
			// A continuation with no message in progress is a protocol
			// violation; the peer must tear the connection down.
			f := &Frame{Fin: true, Opcode: OpContinuation, Masked: true, Payload: []byte("stray")}
			tc.Send(f.Marshal())
		}
	}
	sim.RunUntil(10 * time.Second)
	if !closed {
		t.Fatal("stray continuation not rejected")
	}
}

func TestInterleavedControlDuringFragmentation(t *testing.T) {
	// A ping between fragments must be answered without disturbing
	// reassembly (control frames may interleave, per RFC 6455).
	sim := eventsim.New(35)
	client, server, serverIP := wsPair(t, sim, 0)
	var got []byte
	Serve(server, 8080, func(c *Conn) {
		c.OnMessage = func(_ Opcode, p []byte) { got = p }
	})
	var pong bool
	tc, _ := client.Dial(serverIP, 8080)
	tc.OnEstablished = func() {
		ws, _ := new(Client).Dial(tc, "s", "/")
		ws.OnMessage = func(op Opcode, _ []byte) {
			if op == OpPong {
				pong = true
			}
		}
		ws.OnOpen = func() {
			f1 := &Frame{Fin: false, Opcode: OpBinary, Masked: true, Payload: []byte("part1-")}
			ping := &Frame{Fin: true, Opcode: OpPing, Masked: true, Payload: []byte("hb")}
			f2 := &Frame{Fin: true, Opcode: OpContinuation, Masked: true, Payload: []byte("part2")}
			tc.Send(f1.Marshal())
			tc.Send(ping.Marshal())
			tc.Send(f2.Marshal())
		}
	}
	sim.RunUntil(10 * time.Second)
	if string(got) != "part1-part2" {
		t.Fatalf("reassembled = %q", got)
	}
	if !pong {
		t.Fatal("interleaved ping not answered")
	}
}
