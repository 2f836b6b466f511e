// Package liveclient drives the paper's measurement-method taxonomy over
// real sockets against the live measurement server, and appraises the
// overhead of each client-side stack exactly as Eq. 1 does in the
// simulated testbed.
//
// Without root we cannot run a packet capture, so the wire-level
// timestamps (tNs, tNr) come from a connection-level tap: the instant the
// probe bytes enter the socket write and the instant the response bytes
// come out of the socket read. That tap sits below everything a
// measurement tool adds (HTTP client machinery, WebSocket framing,
// buffering), so the difference between tool-level and tap-level RTTs is
// the same delay-overhead quantity — measured against the deepest point
// reachable in user space. Software capture accuracy is itself ~0.3 ms
// (paper Section 4.2), so this substitution stays within the noise the
// paper already tolerates.
package liveclient

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/browsermetric/browsermetric/internal/obs"
	"github.com/browsermetric/browsermetric/internal/stats"
	"github.com/browsermetric/browsermetric/internal/wssim"
)

// Measurement is one probe: tool-level and tap-level timestamps.
type Measurement struct {
	TBs, TBr time.Time // tool-level ("browser") timestamps
	TNs, TNr time.Time // tap-level ("network") timestamps
}

// BrowserRTT is the RTT the tool would report.
func (m Measurement) BrowserRTT() time.Duration { return m.TBr.Sub(m.TBs) }

// WireRTT is the tap-level ground truth.
func (m Measurement) WireRTT() time.Duration { return m.TNr.Sub(m.TNs) }

// Overhead is Eq. 1.
func (m Measurement) Overhead() time.Duration { return m.BrowserRTT() - m.WireRTT() }

// tappedConn wraps a net.Conn and records the first write after Arm() and
// the first successful read after it.
type tappedConn struct {
	net.Conn
	mu      sync.Mutex
	armed   bool
	sentAt  time.Time
	recvAt  time.Time
	gotSend bool
	gotRecv bool
}

// Arm prepares the tap for the next exchange.
func (c *tappedConn) Arm() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.armed = true
	c.gotSend, c.gotRecv = false, false
}

// Times returns the captured timestamps of the last armed exchange.
func (c *tappedConn) Times() (sent, recv time.Time, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sentAt, c.recvAt, c.gotSend && c.gotRecv
}

func (c *tappedConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	if c.armed && !c.gotSend {
		c.sentAt = time.Now()
		c.gotSend = true
	}
	c.mu.Unlock()
	return c.Conn.Write(b)
}

func (c *tappedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.mu.Lock()
		if c.armed && c.gotSend && !c.gotRecv {
			c.recvAt = time.Now()
			c.gotRecv = true
		}
		c.mu.Unlock()
	}
	return n, err
}

// Method is a live measurement driver. Probe performs one exchange and
// returns the measurement; Close releases the underlying connection.
type Method interface {
	Name() string
	Probe() (Measurement, error)
	Close() error
}

// --- HTTP method (net/http as the "browser" stack under appraisal) ---

type httpMethod struct {
	name   string
	post   bool
	url    string
	client *http.Client
	tap    *tappedConn
	mu     sync.Mutex
}

// NewHTTPGet builds a GET driver against the live server's HTTP address.
func NewHTTPGet(addr string) (Method, error) { return newHTTP(addr, false) }

// NewHTTPPost builds a POST driver.
func NewHTTPPost(addr string) (Method, error) { return newHTTP(addr, true) }

func newHTTP(addr string, post bool) (Method, error) {
	m := &httpMethod{post: post, url: "http://" + addr + "/probe"}
	m.name = "live HTTP GET"
	if post {
		m.name = "live HTTP POST"
	}
	tr := &http.Transport{
		// Exactly one connection so every probe shares the tapped conn
		// (the reuse behaviour the paper's Δd2 captures).
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DialContext: func(ctx context.Context, network, address string) (net.Conn, error) {
			d := net.Dialer{}
			c, err := d.DialContext(ctx, network, address)
			if err != nil {
				return nil, err
			}
			m.mu.Lock()
			m.tap = &tappedConn{Conn: c}
			m.mu.Unlock()
			return m.tap, nil
		},
	}
	m.client = &http.Client{Transport: tr, Timeout: 10 * time.Second}
	// Preparation phase: fetch the container page so the connection
	// exists before the first timed probe.
	resp, err := m.client.Get("http://" + addr + "/")
	if err != nil {
		return nil, fmt.Errorf("liveclient: preparation fetch: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return m, nil
}

func (m *httpMethod) Name() string { return m.name }

func (m *httpMethod) Probe() (Measurement, error) {
	m.mu.Lock()
	tap := m.tap
	m.mu.Unlock()
	if tap == nil {
		return Measurement{}, fmt.Errorf("liveclient: no connection established")
	}
	tap.Arm()
	var meas Measurement
	meas.TBs = time.Now()
	var resp *http.Response
	var err error
	if m.post {
		resp, err = m.client.Post(m.url, "application/octet-stream", newProbeBody())
	} else {
		resp, err = m.client.Get(m.url)
	}
	if err != nil {
		return Measurement{}, err
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		resp.Body.Close()
		return Measurement{}, err
	}
	resp.Body.Close()
	meas.TBr = time.Now()
	sent, recv, ok := tap.Times()
	if !ok {
		return Measurement{}, fmt.Errorf("liveclient: tap saw no exchange (connection changed?)")
	}
	meas.TNs, meas.TNr = sent, recv
	return meas, nil
}

func (m *httpMethod) Close() error {
	m.client.CloseIdleConnections()
	return nil
}

func newProbeBody() io.Reader { return &fixedBody{data: []byte("probe-body")} }

type fixedBody struct {
	data []byte
	off  int
}

func (b *fixedBody) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}

// --- WebSocket method ---

type wsMethod struct {
	tap *tappedConn
	br  *bufio.Reader
}

// NewWebSocket dials the live server's WebSocket address and performs the
// upgrade handshake (preparation phase).
func NewWebSocket(addr string) (Method, error) {
	raw, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	tap := &tappedConn{Conn: raw}
	req := "GET /ws HTTP/1.1\r\n" +
		"Host: " + addr + "\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\n" +
		"Sec-WebSocket-Version: 13\r\n\r\n"
	if _, err := io.WriteString(tap, req); err != nil {
		raw.Close()
		return nil, err
	}
	br := bufio.NewReader(tap)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		raw.Close()
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != 101 {
		raw.Close()
		return nil, fmt.Errorf("liveclient: upgrade status %d", resp.StatusCode)
	}
	return &wsMethod{tap: tap, br: br}, nil
}

func (m *wsMethod) Name() string { return "live WebSocket" }

func (m *wsMethod) Probe() (Measurement, error) {
	m.tap.Arm()
	_ = m.tap.SetReadDeadline(time.Now().Add(10 * time.Second))
	var meas Measurement
	frame := &wssim.Frame{Fin: true, Opcode: wssim.OpBinary, Masked: true,
		MaskKey: [4]byte{1, 2, 3, 4}, Payload: []byte("ws-probe")}
	meas.TBs = time.Now()
	if _, err := m.tap.Write(frame.Marshal()); err != nil {
		return Measurement{}, err
	}
	var buf []byte
	chunk := make([]byte, 1024)
	for {
		n, err := m.br.Read(chunk)
		if n > 0 {
			buf = append(buf, chunk[:n]...)
			if f, _, ferr := wssim.ParseFrame(buf); ferr == nil {
				if f.Opcode != wssim.OpBinary {
					return Measurement{}, fmt.Errorf("liveclient: unexpected opcode %v", f.Opcode)
				}
				break
			} else if ferr != wssim.ErrIncomplete {
				return Measurement{}, ferr
			}
		}
		if err != nil {
			return Measurement{}, err
		}
	}
	meas.TBr = time.Now()
	sent, recv, ok := m.tap.Times()
	if !ok {
		return Measurement{}, fmt.Errorf("liveclient: ws tap incomplete")
	}
	meas.TNs, meas.TNr = sent, recv
	return meas, nil
}

func (m *wsMethod) Close() error { return m.tap.Close() }

// --- raw TCP socket method ---

type tcpMethod struct {
	tap *tappedConn
}

// NewTCP dials the TCP echo service (preparation = connect).
func NewTCP(addr string) (Method, error) {
	raw, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &tcpMethod{tap: &tappedConn{Conn: raw}}, nil
}

func (m *tcpMethod) Name() string { return "live TCP socket" }

func (m *tcpMethod) Probe() (Measurement, error) {
	m.tap.Arm()
	_ = m.tap.SetReadDeadline(time.Now().Add(10 * time.Second))
	var meas Measurement
	meas.TBs = time.Now()
	if _, err := m.tap.Write([]byte("tcp-probe")); err != nil {
		return Measurement{}, err
	}
	buf := make([]byte, 1024)
	if _, err := m.tap.Read(buf); err != nil {
		return Measurement{}, err
	}
	meas.TBr = time.Now()
	sent, recv, ok := m.tap.Times()
	if !ok {
		return Measurement{}, fmt.Errorf("liveclient: tcp tap incomplete")
	}
	meas.TNs, meas.TNr = sent, recv
	return meas, nil
}

func (m *tcpMethod) Close() error { return m.tap.Close() }

// --- UDP socket method ---

type udpMethod struct {
	conn net.Conn
}

// NewUDP opens a connected UDP socket to the echo service.
func NewUDP(addr string) (Method, error) {
	c, err := net.Dial("udp", addr)
	if err != nil {
		return nil, err
	}
	return &udpMethod{conn: c}, nil
}

func (m *udpMethod) Name() string { return "live UDP socket" }

func (m *udpMethod) Probe() (Measurement, error) {
	var meas Measurement
	meas.TBs = time.Now()
	meas.TNs = meas.TBs // the write below IS the stack boundary
	if _, err := m.conn.Write([]byte("udp-probe")); err != nil {
		return Measurement{}, err
	}
	buf := make([]byte, 1024)
	_ = m.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := m.conn.Read(buf); err != nil {
		return Measurement{}, err
	}
	meas.TNr = time.Now()
	meas.TBr = meas.TNr
	return meas, nil
}

func (m *udpMethod) Close() error { return m.conn.Close() }

// Appraise runs n probes through a method and summarizes the overheads in
// milliseconds (box summary plus mean ± 95% CI).
func Appraise(m Method, n int) (stats.Box, float64, float64, error) {
	var overheads []float64
	for i := 0; i < n; i++ {
		meas, err := m.Probe()
		if err != nil {
			return stats.Box{}, 0, 0, fmt.Errorf("liveclient: probe %d: %w", i, err)
		}
		overheads = append(overheads, stats.Ms(meas.Overhead()))
	}
	box := stats.NewBox(overheads)
	mean, half := stats.MeanCI95(overheads)
	return box, mean, half, nil
}

// StudyRow is one method's appraisal in a live study.
type StudyRow struct {
	Name   string
	Box    stats.Box
	Mean   float64 // ms
	CIHalf float64 // ms
	// WireRTTMedian is the tap-level RTT median (ms) — the live analogue
	// of the capture ground truth.
	WireRTTMedian float64
}

// Addrs names the live services a study probes.
type Addrs struct {
	HTTP    string
	WS      string
	TCPEcho string
	UDPEcho string
}

// StudyOptions tunes a live study beyond the probe count.
type StudyOptions struct {
	// Probes per client stack (default 25), after two warm-up probes.
	Probes int
	// Metrics, when non-nil, receives wall-clock series for every probe:
	// per-method RTT and overhead-attribution sketches whose family
	// names mirror the simulator's stage metrics (stage_send_path_ms,
	// stage_event_dispatch_ms, delta_d_ms), so a sim metrics export and
	// a live scrape read identically, plus live_probe_rtt_ms /
	// live_wire_rtt_ms and a live_probes_total counter. nil disables
	// instrumentation at zero cost.
	Metrics *obs.Metrics
}

// methodSeries holds the precomputed registry keys for one client
// stack, so the probe loop does no label formatting.
type methodSeries struct {
	probes   string // counter
	rtt      string // tool-level ("browser") RTT sketch, ms
	wire     string // tap-level RTT sketch, ms
	send     string // send-path attribution (tNs − tBs), ms
	dispatch string // event-dispatch attribution (tBr − tNr), ms
	delta    string // Eq. 1 overhead, ms
}

func newMethodSeries(method string) methodSeries {
	return methodSeries{
		probes:   obs.L("live_probes_total", "method", method),
		rtt:      obs.L("live_probe_rtt_ms", "method", method),
		wire:     obs.L("live_wire_rtt_ms", "method", method),
		send:     obs.L("stage_send_path_ms", "method", method),
		dispatch: obs.L("stage_event_dispatch_ms", "method", method),
		delta:    obs.L("delta_d_ms", "method", method),
	}
}

// registerStudyHelp documents the live series for Prometheus exposition.
func registerStudyHelp(m *obs.Metrics) {
	if !m.Enabled() {
		return
	}
	m.SetHelp("live_probes_total", "Probes completed per client stack.")
	m.SetHelp("live_probe_rtt_ms", "Tool-level probe RTT (tBr - tBs) in milliseconds.")
	m.SetHelp("live_wire_rtt_ms", "Tap-level probe RTT (tNr - tNs) in milliseconds.")
	m.SetHelp("stage_send_path_ms", "Send-path cost above the tap (tNs - tBs) in milliseconds; mirrors the simulator's series.")
	m.SetHelp("stage_event_dispatch_ms", "Receive/dispatch cost above the tap (tBr - tNr) in milliseconds; mirrors the simulator's series.")
	m.SetHelp("delta_d_ms", "Eq. 1 delay overhead (browser RTT minus wire RTT) in milliseconds; mirrors the simulator's series.")
}

// observeProbe records one measured probe into the wall-clock registry.
func observeProbe(m *obs.Metrics, ser methodSeries, meas Measurement) {
	if !m.Enabled() {
		return
	}
	m.Add(ser.probes, 1)
	m.SketchDur(ser.rtt, meas.BrowserRTT())
	m.SketchDur(ser.wire, meas.WireRTT())
	m.SketchDur(ser.send, meas.TNs.Sub(meas.TBs))
	m.SketchDur(ser.dispatch, meas.TBr.Sub(meas.TNr))
	m.SketchDur(ser.delta, meas.Overhead())
}

// RunStudyWithOptions appraises every live client stack against the
// given services with opt.Probes probes each (default 25), warming each
// stack with two discarded probes first (the Δd1/Δd2 split matters less
// here: real schedulers dominate), and records wall-clock observability
// into opt.Metrics.
func RunStudyWithOptions(addrs Addrs, opt StudyOptions) ([]StudyRow, error) {
	n := opt.Probes
	if n <= 0 {
		n = 25
	}
	registerStudyHelp(opt.Metrics)
	drivers := []struct {
		name   string
		method string // label value on the live series
		mk     func() (Method, error)
	}{
		{"HTTP GET (net/http)", "http-get", func() (Method, error) { return NewHTTPGet(addrs.HTTP) }},
		{"HTTP POST (net/http)", "http-post", func() (Method, error) { return NewHTTPPost(addrs.HTTP) }},
		{"WebSocket", "websocket", func() (Method, error) { return NewWebSocket(addrs.WS) }},
		{"raw TCP socket", "tcp", func() (Method, error) { return NewTCP(addrs.TCPEcho) }},
		{"UDP socket", "udp", func() (Method, error) { return NewUDP(addrs.UDPEcho) }},
	}
	var rows []StudyRow
	for _, d := range drivers {
		m, err := d.mk()
		if err != nil {
			return rows, fmt.Errorf("liveclient: %s: %w", d.name, err)
		}
		ser := newMethodSeries(d.method)
		var overheads, wires []float64
		probeErr := func() error {
			for i := 0; i < n+2; i++ {
				meas, err := m.Probe()
				if err != nil {
					return fmt.Errorf("probe %d: %w", i, err)
				}
				if i < 2 {
					continue // warm-up
				}
				observeProbe(opt.Metrics, ser, meas)
				overheads = append(overheads, stats.Ms(meas.Overhead()))
				wires = append(wires, stats.Ms(meas.WireRTT()))
			}
			return nil
		}()
		m.Close()
		if probeErr != nil {
			return rows, fmt.Errorf("liveclient: %s: %w", d.name, probeErr)
		}
		mean, half := stats.MeanCI95(overheads)
		rows = append(rows, StudyRow{
			Name:          d.name,
			Box:           stats.NewBox(overheads),
			Mean:          mean,
			CIHalf:        half,
			WireRTTMedian: stats.Median(wires),
		})
	}
	return rows, nil
}
