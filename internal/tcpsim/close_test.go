package tcpsim

import (
	"errors"
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/eventsim"
)

// sinkFunc adapts a function to DataSink.
type sinkFunc func([]byte)

func (f sinkFunc) ConnData(_ *Conn, b []byte) { f(b) }

// closeLog records every OnClose reason a connection reports.
type closeLog []error

func (l *closeLog) on(c *Conn) { c.OnClose = func(err error) { *l = append(*l, err) } }

// once fails the test unless the connection reported exactly one
// ending, with reason want.
func (l closeLog) once(t *testing.T, who string, want error) {
	t.Helper()
	if len(l) != 1 || !errors.Is(l[0], want) {
		t.Errorf("%s: OnClose reported %v, want exactly one %v", who, []error(l), want)
	}
}

// TestOnCloseReportsEachEnding drives the four ways a connection ends and
// checks that OnClose fires exactly once with the matching reason, on
// both ends where there are two.
func TestOnCloseReportsEachEnding(t *testing.T) {
	t.Run("orderly close", func(t *testing.T) {
		sim := eventsim.New(5)
		client, server := pair(t, sim, 10*time.Microsecond)
		var cl, sl closeLog
		server.Listen(80, func(c *Conn) {
			sl.on(c)
			c.Sink = sinkFunc(func([]byte) {
				c.Send([]byte("bye"))
				c.Close()
			})
		})
		c, _ := client.Dial(ipB, 80)
		cl.on(c)
		c.OnEstablished = func() { c.Send([]byte("hi")) }
		c.Sink = sinkFunc(func([]byte) { c.Close() })
		sim.Run()
		cl.once(t, "client", nil)
		sl.once(t, "server", nil)
	})

	t.Run("local abort and peer reset", func(t *testing.T) {
		sim := eventsim.New(16)
		client, server := pair(t, sim, 10*time.Microsecond)
		var cl, sl closeLog
		server.Listen(80, func(c *Conn) { sl.on(c) })
		c, _ := client.Dial(ipB, 80)
		cl.on(c)
		c.OnEstablished = func() { c.Abort() }
		sim.Run()
		cl.once(t, "aborting client", ErrAborted)
		sl.once(t, "reset server", ErrReset)
	})

	t.Run("retransmission give-up", func(t *testing.T) {
		sim := eventsim.New(5)
		client, _, _ := lossyPair(t, sim, 1.0)
		var cl closeLog
		c, _ := client.Dial(ipB, 80)
		cl.on(c)
		sim.Run()
		cl.once(t, "client", ErrAborted)
		if client.SegmentsRetransmitted == 0 {
			t.Error("the connection ended without retransmitting")
		}
	})
}
