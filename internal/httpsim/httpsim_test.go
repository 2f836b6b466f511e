package httpsim

import (
	"bytes"
	"errors"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/browsermetric/browsermetric/internal/eventsim"
	"github.com/browsermetric/browsermetric/internal/netsim"
	"github.com/browsermetric/browsermetric/internal/tcpsim"
)

func TestRequestRoundTrip(t *testing.T) {
	in := &Request{
		Method:  "POST",
		Target:  "/probe?x=1",
		Headers: Headers{{"Host", "server"}, {"X-Probe", "abc"}},
		Body:    []byte("payload-bytes"),
	}
	b := in.Marshal()
	out, n, err := ParseRequest(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b) {
		t.Fatalf("consumed %d of %d", n, len(b))
	}
	if out.Method != "POST" || out.Target != "/probe?x=1" || out.Proto != "HTTP/1.1" {
		t.Fatalf("request line = %s %s %s", out.Method, out.Target, out.Proto)
	}
	if out.Headers.Get("host") != "server" || out.Headers.Get("X-PROBE") != "abc" {
		t.Fatalf("headers = %+v", out.Headers)
	}
	if string(out.Body) != "payload-bytes" {
		t.Fatalf("body = %q", out.Body)
	}
	if out.Headers.Get("Content-Length") != "13" {
		t.Fatalf("Content-Length = %q", out.Headers.Get("Content-Length"))
	}
}

func TestResponseRoundTrip(t *testing.T) {
	in := &Response{Status: 200, Headers: Headers{{"Server", "simapache/2.2"}}, Body: []byte("pong")}
	b := in.Marshal()
	out, n, err := ParseResponse(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b) {
		t.Fatalf("consumed %d of %d", n, len(b))
	}
	if out.Status != 200 || out.Reason != "OK" {
		t.Fatalf("status = %d %q", out.Status, out.Reason)
	}
	if string(out.Body) != "pong" {
		t.Fatalf("body = %q", out.Body)
	}
}

func TestParseIncomplete(t *testing.T) {
	full := (&Request{Method: "GET", Target: "/", Headers: Headers{{"Host", "h"}}}).Marshal()
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := ParseRequest(full[:cut]); !errors.Is(err, ErrIncomplete) {
			t.Fatalf("cut=%d: err = %v, want ErrIncomplete", cut, err)
		}
	}
}

func TestParseIncompleteBody(t *testing.T) {
	full := (&Request{Method: "POST", Target: "/", Body: []byte("0123456789")}).Marshal()
	if _, _, err := ParseRequest(full[:len(full)-3]); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("err = %v, want ErrIncomplete", err)
	}
}

func TestParsePipelined(t *testing.T) {
	a := (&Request{Method: "GET", Target: "/a"}).Marshal()
	b := (&Request{Method: "GET", Target: "/b"}).Marshal()
	buf := append(append([]byte{}, a...), b...)
	r1, n1, err := ParseRequest(buf)
	if err != nil {
		t.Fatal(err)
	}
	r2, n2, err := ParseRequest(buf[n1:])
	if err != nil {
		t.Fatal(err)
	}
	if r1.Target != "/a" || r2.Target != "/b" || n1+n2 != len(buf) {
		t.Fatalf("pipelined parse wrong: %q %q", r1.Target, r2.Target)
	}
}

func TestParseMalformed(t *testing.T) {
	cases := []string{
		"BROKEN\r\n\r\n",
		"GET /\r\n\r\n",                                    // missing proto
		"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",            // bad header
		"HTTP/1.1 abc Bad\r\n\r\n",                         // bad status
		"GET / HTTP/1.1\r\nContent-Length: -5\r\n\r\nbody", // negative length
	}
	for _, c := range cases {
		var err error
		if strings.HasPrefix(c, "HTTP/") {
			_, _, err = ParseResponse([]byte(c))
		} else {
			_, _, err = ParseRequest([]byte(c))
		}
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("%q: err = %v, want ErrMalformed", c, err)
		}
	}
}

func TestHeaderSetReplaces(t *testing.T) {
	hs := Headers{{"Connection", "keep-alive"}}
	hs.Set("connection", "close")
	if len(hs) != 1 || hs.Get("Connection") != "close" {
		t.Fatalf("headers = %+v", hs)
	}
	hs.Set("New", "v")
	if len(hs) != 2 {
		t.Fatalf("Set did not append: %+v", hs)
	}
}

func TestWantsClose(t *testing.T) {
	if WantsClose(Headers{{"Connection", "keep-alive"}}) {
		t.Fatal("keep-alive treated as close")
	}
	if !WantsClose(Headers{{"Connection", "Close"}}) {
		t.Fatal("Close not detected (case-insensitive)")
	}
}

func TestStatusText(t *testing.T) {
	for code, want := range map[int]string{200: "OK", 101: "Switching Protocols", 404: "Not Found", 999: "Unknown"} {
		if got := StatusText(code); got != want {
			t.Errorf("StatusText(%d) = %q, want %q", code, got, want)
		}
	}
}

// netPair assembles client/server stacks over a switch for server tests.
func netPair(t testing.TB, sim *eventsim.Simulator, prop time.Duration) (*tcpsim.Stack, *tcpsim.Stack, netip.Addr) {
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

func TestServerEndToEnd(t *testing.T) {
	sim := eventsim.New(1)
	client, serverStack, serverIP := netPair(t, sim, 100*time.Microsecond)

	srv := &Server{Sim: sim, Stack: serverStack, Handler: func(r *Request) *Response {
		return &Response{Status: 200, Body: []byte("echo:" + r.Target)}
	}}
	if err := srv.Serve(80); err != nil {
		t.Fatal(err)
	}

	var got *Response
	c, _ := client.Dial(serverIP, 80)
	cc := NewClientConn(c)
	c.OnEstablished = func() {
		cc.RoundTrip(&Request{Method: "GET", Target: "/x", Headers: Headers{{"Host", "s"}}}, func(r *Response) { got = r })
	}
	sim.RunUntil(10 * time.Second)

	if got == nil || got.Status != 200 || string(got.Body) != "echo:/x" {
		t.Fatalf("response = %+v", got)
	}
	if srv.Requests != 1 {
		t.Fatalf("server requests = %d", srv.Requests)
	}
}

func TestServerKeepAliveTwoRequests(t *testing.T) {
	sim := eventsim.New(3)
	client, serverStack, serverIP := netPair(t, sim, 10*time.Microsecond)
	srv := &Server{Sim: sim, Stack: serverStack, Handler: func(r *Request) *Response {
		return &Response{Status: 200, Body: []byte(r.Target)}
	}}
	srv.Serve(80)

	var bodies []string
	c, _ := client.Dial(serverIP, 80)
	cc := NewClientConn(c)
	c.OnEstablished = func() {
		cc.RoundTrip(&Request{Method: "GET", Target: "/1"}, func(r *Response) {
			bodies = append(bodies, string(r.Body))
			cc.RoundTrip(&Request{Method: "GET", Target: "/2"}, func(r2 *Response) {
				bodies = append(bodies, string(r2.Body))
			})
		})
	}
	sim.RunUntil(10 * time.Second)

	if len(bodies) != 2 || bodies[0] != "/1" || bodies[1] != "/2" {
		t.Fatalf("bodies = %v", bodies)
	}
	if c.State() != tcpsim.StateEstablished {
		t.Fatalf("keep-alive connection state = %v", c.State())
	}
}

func TestServerConnectionClose(t *testing.T) {
	sim := eventsim.New(4)
	client, serverStack, serverIP := netPair(t, sim, 10*time.Microsecond)
	srv := &Server{Sim: sim, Stack: serverStack, Handler: func(*Request) *Response {
		return &Response{Status: 200}
	}}
	srv.Serve(80)

	closed := false
	c, _ := client.Dial(serverIP, 80)
	cc := NewClientConn(c)
	c.OnClose = func() { closed = true }
	c.OnEstablished = func() {
		cc.RoundTrip(&Request{Method: "GET", Target: "/", Headers: Headers{{"Connection", "close"}}}, func(r *Response) {
			c.Close()
		})
	}
	sim.RunUntil(10 * time.Second)
	if !closed {
		t.Fatal("connection not torn down after Connection: close")
	}
}

func TestServerMalformedRequestGets400(t *testing.T) {
	sim := eventsim.New(5)
	client, serverStack, serverIP := netPair(t, sim, 10*time.Microsecond)
	srv := &Server{Sim: sim, Stack: serverStack, Handler: func(*Request) *Response {
		return &Response{Status: 200}
	}}
	srv.Serve(80)

	var status int
	c, _ := client.Dial(serverIP, 80)
	cc := NewClientConn(c)
	c.OnEstablished = func() {
		cc.pend = append(cc.pend, func(r *Response) { status = r.Status })
		c.Send([]byte("GARBAGE REQUEST LINE\r\n\r\n"))
	}
	sim.RunUntil(10 * time.Second)
	if status != 400 {
		t.Fatalf("status = %d, want 400", status)
	}
}

func TestServerNilHandler404(t *testing.T) {
	sim := eventsim.New(6)
	client, serverStack, serverIP := netPair(t, sim, 0)
	srv := &Server{Sim: sim, Stack: serverStack}
	srv.Serve(80)
	var status int
	c, _ := client.Dial(serverIP, 80)
	cc := NewClientConn(c)
	c.OnEstablished = func() {
		cc.RoundTrip(&Request{Method: "GET", Target: "/"}, func(r *Response) { status = r.Status })
	}
	sim.RunUntil(10 * time.Second)
	if status != 404 {
		t.Fatalf("status = %d, want 404", status)
	}
}

// Property: request marshal/parse round-trips for arbitrary bodies and
// token-ish targets.
func TestQuickRequestRoundTrip(t *testing.T) {
	f := func(body []byte, seg uint16) bool {
		in := &Request{Method: "POST", Target: "/p/" + itoa(seg), Body: body}
		out, n, err := ParseRequest(in.Marshal())
		if err != nil || n != len(in.Marshal()) {
			return false
		}
		return out.Target == in.Target && bytes.Equal(out.Body, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: response marshal/parse round-trips for valid status codes.
func TestQuickResponseRoundTrip(t *testing.T) {
	f := func(body []byte, code uint8) bool {
		status := 100 + int(code)%500
		in := &Response{Status: status, Body: body}
		out, _, err := ParseResponse(in.Marshal())
		if err != nil {
			return false
		}
		return out.Status == status && bytes.Equal(out.Body, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func itoa(v uint16) string {
	const digits = "0123456789"
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{digits[v%10]}, b...)
		v /= 10
	}
	return string(b)
}

func TestServerPipelinedRequestsInOneSegment(t *testing.T) {
	// Two requests arriving in a single TCP segment: the server must
	// answer both in order.
	sim := eventsim.New(7)
	client, serverStack, serverIP := netPair(t, sim, 10*time.Microsecond)
	srv := &Server{Sim: sim, Stack: serverStack, Handler: func(r *Request) *Response {
		return &Response{Status: 200, Body: []byte(r.Target)}
	}}
	srv.Serve(80)

	var bodies []string
	c, _ := client.Dial(serverIP, 80)
	cc := NewClientConn(c)
	c.OnEstablished = func() {
		// Send both requests back-to-back without waiting.
		cc.RoundTrip(&Request{Method: "GET", Target: "/a"}, func(r *Response) {
			bodies = append(bodies, string(r.Body))
		})
		cc.RoundTrip(&Request{Method: "GET", Target: "/b"}, func(r *Response) {
			bodies = append(bodies, string(r.Body))
		})
	}
	sim.RunUntil(10 * time.Second)
	if len(bodies) != 2 || bodies[0] != "/a" || bodies[1] != "/b" {
		t.Fatalf("bodies = %v", bodies)
	}
	if srv.Requests != 2 {
		t.Fatalf("requests = %d", srv.Requests)
	}
}

func TestClientConnHandlesGarbageResponse(t *testing.T) {
	sim := eventsim.New(8)
	client, serverStack, serverIP := netPair(t, sim, 0)
	// A "server" that answers with garbage.
	serverStack.Listen(80, func(c *tcpsim.Conn) {
		c.OnData = func([]byte) { c.Send([]byte("NOT HTTP AT ALL\r\n\r\n")) }
	})
	var status int = -1
	c, _ := client.Dial(serverIP, 80)
	cc := NewClientConn(c)
	c.OnEstablished = func() {
		cc.RoundTrip(&Request{Method: "GET", Target: "/"}, func(r *Response) { status = r.Status })
	}
	sim.RunUntil(10 * time.Second)
	if status != 0 {
		t.Fatalf("status = %d, want synthetic 0 for parse failure", status)
	}
}

// Marshal serializes the request on the heap.
func (r *Request) Marshal() []byte { return r.MarshalArena(nil) }

// ParseRequest parses one request from the front of b into a fresh
// Request. It returns the request and the number of bytes consumed, or
// ErrIncomplete if b does not yet hold a full message.
func ParseRequest(b []byte) (*Request, int, error) {
	req := &Request{}
	n, err := ParseRequestInto(req, b, nil, nil)
	if err != nil {
		return nil, 0, err
	}
	return req, n, nil
}

// ParseResponse parses one response from the front of b, analogous to
// ParseRequest.
func ParseResponse(b []byte) (*Response, int, error) {
	resp := &Response{}
	n, err := ParseResponseInto(resp, b, nil, nil)
	if err != nil {
		return nil, 0, err
	}
	return resp, n, nil
}
