// Package testbed assembles the paper's Figure 2 experiment network: a
// client machine and a web-server machine joined by a switch over 100 Mbps
// Ethernet, with an artificial +50 ms delay applied on the server side (at
// the network layer, so it also delays SYN-ACKs) and a WinDump/tcpdump
// equivalent capturing on the client.
//
// The server machine hosts the workloads every measurement method needs:
// an Apache-like HTTP server (container page + probe endpoints), a
// WebSocket echo service, and TCP/UDP echo services.
package testbed

import (
	"net/netip"
	"strconv"
	"strings"
	"time"

	"github.com/browsermetric/browsermetric/internal/arena"
	"github.com/browsermetric/browsermetric/internal/capture"
	"github.com/browsermetric/browsermetric/internal/eventsim"
	"github.com/browsermetric/browsermetric/internal/faults"
	"github.com/browsermetric/browsermetric/internal/httpsim"
	"github.com/browsermetric/browsermetric/internal/netsim"
	"github.com/browsermetric/browsermetric/internal/obs"
	"github.com/browsermetric/browsermetric/internal/tcpsim"
	"github.com/browsermetric/browsermetric/internal/wssim"
)

// Well-known service ports on the testbed server.
const (
	HTTPPort    uint16 = 80
	WSPort      uint16 = 8080
	TCPEchoPort uint16 = 9000
	UDPEchoPort uint16 = 9001
	// FlashPolicyPort serves the cross-domain socket policy file that the
	// Flash plugin fetches before allowing any Socket connection (the
	// mechanism behind Table 1's "same-origin policy can be bypassed"
	// footnote for Flash).
	FlashPolicyPort uint16 = 843
)

// flashPolicyXML is the crossdomain policy the testbed serves on port 843.
const flashPolicyXML = `<?xml version="1.0"?><cross-domain-policy>` +
	`<allow-access-from domain="*" to-ports="*"/></cross-domain-policy>` + "\x00"

// Config tunes the testbed; the zero value plus New's defaults reproduce
// the paper's setup.
type Config struct {
	// ServerDelay is the artificial delay added to every frame leaving
	// the server (default 50 ms, the paper's simulated Internet delay).
	ServerDelay time.Duration
	// LinkRate is the Ethernet line rate in bits/s (default 100 Mbps).
	LinkRate int64
	// Propagation is the one-way per-link latency (default 5 µs — a LAN).
	Propagation time.Duration
	// LossRate injects independent frame loss on the server link (both
	// directions). The paper's testbed is loss-free (the default); the
	// loss-measurement extension uses this knob.
	LossRate float64
	// ServerParseCost models per-request server-side processing time
	// (Apache parse + handler CPU). It lands in the wire RTT — the
	// server-side overhead the paper's conclusion names as the next
	// thing to investigate.
	ServerParseCost time.Duration
	// Faults selects a network-impairment profile for the server link
	// (loss, reordering, duplication, jitter, bottleneck queueing). The
	// zero value and faults.Clean install nothing: the link then runs the
	// exact pre-impairment code path. Unknown profiles panic in New, like
	// every other unusable-testbed configuration error.
	Faults faults.Profile
	// Seed seeds the deterministic simulation.
	Seed int64
	// Tracer, when non-nil, records virtual-time spans across the whole
	// testbed (TCP connects, HTTP server delay, WebSocket upgrades, and —
	// via the methods runner — the full Δd stage waterfall). New binds it
	// to the simulator clock. Tracing only observes; it cannot change any
	// simulated outcome.
	Tracer *obs.Tracer
	// Metrics, when non-nil, receives counters and sketches from every
	// simulated layer (segments, retransmits, bytes on wire, requests).
	Metrics *obs.Metrics
	// Arena, when non-nil, owns the testbed's per-run buffers (frames,
	// HTTP messages, parse scratch); BeginRun resets it between runs so a
	// warm run allocates nothing. When nil, the testbed uses a private
	// arena of its own.
	// Like Tracer/Metrics it is observational: reuse cannot change any
	// simulated outcome (the determinism suite enforces this), so it is
	// excluded from sweep cache keys.
	Arena *arena.Arena
}

func (c *Config) fillDefaults() {
	if c.ServerDelay == 0 {
		c.ServerDelay = 50 * time.Millisecond
	}
	if c.LinkRate == 0 {
		c.LinkRate = 100_000_000
	}
	if c.Propagation == 0 {
		c.Propagation = 5 * time.Microsecond
	}
}

// Normalize applies the paper-default values to zero fields — the same
// mapping New applies to its own copy — so cache keys built from a
// normalized config treat "zero" and "explicit default" as the same cell.
func (c *Config) Normalize() { c.fillDefaults() }

// Testbed is an assembled Figure 2 network.
//
// A finished testbed can serve another cell: Reset returns it to exactly
// the state New builds for the cell's config. The simulator's event
// records, both stacks' connection records, listeners and services, the
// capture's storage and the testbed's own arena survive the reset, so a
// cell after the first allocates almost no set-up.
type Testbed struct {
	Sim        *eventsim.Simulator
	Client     *tcpsim.Stack
	Server     *tcpsim.Stack
	ClientNIC  *netsim.NIC
	ServerNIC  *netsim.NIC
	ServerAddr netip.Addr
	// Cap is the client-side packet capture (the WinDump/tcpdump stand-in
	// that yields tNs and tNr of Eq. 1).
	Cap *capture.Capture
	// HTTP is the web server; its handler serves the container page and
	// the probe endpoints.
	HTTP *httpsim.Server
	// ServerLink is the switch↔server wire; its loss counters expose how
	// many frames the LossRate knob discarded.
	ServerLink *netsim.Link
	// Impair is the impairment layer installed on ServerLink when
	// Config.Faults selects an enabled profile; nil on the clean path.
	Impair *faults.Impairment
	// Trace and Metrics mirror Config.Tracer/Config.Metrics (nil when
	// observability is off; all recording methods no-op on nil).
	Trace   *obs.Tracer
	Metrics *obs.Metrics
	// Arena owns the per-run buffers of every layer below (frames, HTTP
	// messages, capture scratch). BeginRun resets it; see Config.Arena.
	Arena *arena.Arena

	cfg Config

	clientLink *netsim.Link
	sw         *netsim.Switch
	// own is the testbed's private arena, used whenever Config.Arena is
	// nil; impair is the impairment Reset rewinds when a profile needs
	// one, kept while the clean path runs without it.
	own    *arena.Arena
	impair *faults.Impairment

	// probe holds the per-testbed cached probe responses served by the
	// HTTP handler, so steady-state requests build no response objects.
	probe probeResponses

	// nextUDPPort backs NextUDPPort. Keeping the allocator per-testbed
	// (rather than process-global) makes port assignment a pure function
	// of the testbed's own history, so concurrently running testbeds
	// cannot influence each other's packet traces.
	nextUDPPort uint16
}

// New builds the testbed with the paper's parameters (see Config).
func New(cfg Config) *Testbed {
	tb := build(cfg.Seed)
	tb.configure(cfg)
	return tb
}

// build assembles the topology and services on a simulator seeded with
// seed; configure applies the rest of a Config.
func build(seed int64) *Testbed {
	sim := eventsim.New(seed)
	// Slab-reserve event records for the testbed's peak concurrent load
	// (delayed frames in flight, per-conn RTO timers, method timers).
	sim.Reserve(256)

	clientMAC := netsim.MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x01}
	serverMAC := netsim.MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x02}
	clientIP := netip.MustParseAddr("192.168.1.10")
	serverIP := netip.MustParseAddr("192.168.1.20")

	clientNIC := netsim.NewNIC(sim, "client-eth0", clientMAC, clientIP)
	serverNIC := netsim.NewNIC(sim, "server-eth0", serverMAC, serverIP)

	sw := netsim.NewSwitch(sim, 2*time.Microsecond)
	clientLink := netsim.NewLink(sim, 0, 0)
	serverLink := netsim.NewLink(sim, 0, 0)
	clientNIC.Connect(clientLink)
	sw.Connect(clientLink)
	serverNIC.Connect(serverLink)
	sw.Connect(serverLink)

	// Static ARP for the two hosts: a direct comparison, consulted on
	// every segment, costs less than hashing the address into a table.
	resolve := func(a netip.Addr) (netsim.MAC, bool) {
		switch a {
		case clientIP:
			return clientMAC, true
		case serverIP:
			return serverMAC, true
		}
		return netsim.MAC{}, false
	}

	clientStack := tcpsim.NewStack(sim, clientNIC)
	serverStack := tcpsim.NewStack(sim, serverNIC)
	clientStack.Resolve = resolve
	serverStack.Resolve = resolve

	tb := &Testbed{
		Sim:        sim,
		Client:     clientStack,
		Server:     serverStack,
		ClientNIC:  clientNIC,
		ServerNIC:  serverNIC,
		ServerAddr: serverIP,
		Cap:        capture.Attach(clientNIC),
		ServerLink: serverLink,
		clientLink: clientLink,
		sw:         sw,
	}
	tb.startServices()
	return tb
}

// Reset returns tb to exactly the state New(cfg) builds: the simulator
// restarts at time zero on a generator reseeded from cfg.Seed, every
// queued event, connection and captured frame is dropped, the switch
// table, the links' transmit queues, the port allocators and the
// services' per-connection state rewind, and cfg's delays, rates, loss,
// fault profile, observers and arena are applied. Listeners, services and
// all record storage are kept. The caller must hold nothing it obtained
// from tb before the reset (connections, capture records, arena
// buffers). Unknown fault profiles panic, as in New.
func (tb *Testbed) Reset(cfg Config) {
	tb.Sim.Reset(cfg.Seed)
	tb.configure(cfg)
}

// configure applies cfg to a testbed whose simulator is fresh or was
// just reset: it rewinds everything else Reset names and installs cfg's
// parameters, observers and arena.
func (tb *Testbed) configure(cfg Config) {
	cfg.fillDefaults()
	var params faults.Params
	if cfg.Faults.Enabled() {
		p, err := cfg.Faults.Params()
		if err != nil {
			panic(err)
		}
		params = p
	}
	if cfg.Arena == nil {
		if tb.own == nil {
			tb.own = arena.New(0)
		}
		tb.own.Reset()
		cfg.Arena = tb.own
	}
	tb.cfg = cfg
	tb.Trace, tb.Metrics, tb.Arena = cfg.Tracer, cfg.Metrics, cfg.Arena

	if cfg.Tracer != nil {
		cfg.Tracer.Bind(tb.Sim.Now) // the method value allocates
	}
	tb.ServerNIC.EgressDelay = cfg.ServerDelay
	tb.sw.Reset()
	for _, l := range []*netsim.Link{tb.clientLink, tb.ServerLink} {
		l.Reset()
		l.BitsPerSecond = cfg.LinkRate
		l.Propagation = cfg.Propagation
		l.Metrics = cfg.Metrics
	}
	tb.ServerLink.LossRate = cfg.LossRate
	tb.Impair, tb.ServerLink.Impair = nil, nil
	if cfg.Faults.Enabled() {
		// Salt the seed so the impairment stream is independent of the
		// simulator's own generator while remaining a pure function of the
		// testbed seed.
		seed := cfg.Seed ^ 0x66a17
		if tb.impair == nil {
			tb.impair = faults.New(params, seed, cfg.Metrics)
		} else {
			tb.impair.Reset(params, seed, cfg.Metrics)
		}
		tb.Impair, tb.ServerLink.Impair = tb.impair, tb.impair
	}
	for _, st := range []*tcpsim.Stack{tb.Client, tb.Server} {
		st.Reset()
		st.Trace, st.Metrics, st.Arena = cfg.Tracer, cfg.Metrics, cfg.Arena
	}
	tb.Cap.Reset()
	tb.HTTP.Reset()
	tb.HTTP.ParseCost = cfg.ServerParseCost
	tb.nextUDPPort = 0
}

// BeginRun marks the start of a measurement run: the capture truncates,
// both stacks forget their connections and the arena recycles every
// per-run buffer of the previous run. Call it between runs, after
// Advance has idled the testbed through the inter-run gap.
//
// The forget and the arena reset are guarded by quiescence: if any
// connection still holds unacked or undelivered bytes (a retransmission
// recovering from a fault-profile loss can straddle a short gap), or the
// web server still owes a response, both are skipped for this boundary,
// and the tables and the arena keep growing until the next quiet one.
// No run uses a connection an earlier run opened, so forgetting them
// sends nothing and changes no outcome; it keeps each run's
// connection-table scans as short as the runs since the last quiet
// boundary, and it recycles the connection records (the methods runner
// holds no pointer to one past its run, and the web server's
// per-connection records are recycled in the same step). Quiescence is
// a pure function of simulator state, so the skip decision — like
// everything else — is deterministic.
func (tb *Testbed) BeginRun() {
	tb.Cap.Reset()
	if tb.Client.Quiescent() && tb.Server.Quiescent() && tb.HTTP.Idle() {
		tb.Client.Forget()
		tb.Server.Forget()
		tb.HTTP.Forget()
		tb.Arena.Reset()
	}
}

// startServices brings up the HTTP, WebSocket and echo services.
func (tb *Testbed) startServices() {
	tb.probe.init()
	tb.HTTP = &httpsim.Server{
		Sim:     tb.Sim,
		Stack:   tb.Server,
		Handler: tb.probe.handle,
	}
	if err := tb.HTTP.Serve(HTTPPort); err != nil {
		panic(err)
	}
	if err := wssim.Serve(tb.Server, WSPort, wsEchoAccept); err != nil {
		panic(err)
	}
	if _, err := tb.Server.Listen(TCPEchoPort, tcpEchoAccept); err != nil {
		panic(err)
	}
	// Flash socket policy service: answer <policy-file-request/> with the
	// permissive crossdomain policy and close, as flashpolicyd does.
	if _, err := tb.Server.Listen(FlashPolicyPort, flashPolicyAccept); err != nil {
		panic(err)
	}
	if err := tb.Server.ListenUDP(UDPEchoPort, func(src netip.Addr, srcPort uint16, p []byte) {
		_ = tb.Server.SendUDP(src, UDPEchoPort, srcPort, p) // p arrived in one datagram, so it fits one
	}); err != nil {
		panic(err)
	}
}

// tcpEchoSink echoes every inbound byte. One package-level sink serves
// every echo connection of every testbed — accepting a connection
// allocates nothing.
type tcpEchoSink struct{}

func (tcpEchoSink) ConnData(c *tcpsim.Conn, b []byte) { _ = c.Send(b) }

// flashPolicySink answers any inbound data with the crossdomain policy
// and closes, as flashpolicyd does.
type flashPolicySink struct{}

func (flashPolicySink) ConnData(c *tcpsim.Conn, _ []byte) {
	_ = c.Send(flashPolicyBytes)
	c.Close()
}

var (
	tcpEcho          tcpsim.DataSink = tcpEchoSink{}
	flashPolicy      tcpsim.DataSink = flashPolicySink{}
	flashPolicyBytes                 = []byte(flashPolicyXML)
)

func tcpEchoAccept(c *tcpsim.Conn)     { c.Sink = tcpEcho }
func flashPolicyAccept(c *tcpsim.Conn) { c.Sink = flashPolicy }

// wsEchoAccept installs the shared echo handler on a fresh WebSocket.
func wsEchoAccept(c *wssim.Conn) { c.OnMessage = wsEchoMessage(c) }

// wsEchoMessage returns the shared echo callback; it is a package func so
// every connection reuses one closure shape (see wssim.EchoHandler).
func wsEchoMessage(c *wssim.Conn) func(wssim.Opcode, []byte) {
	return func(op wssim.Opcode, p []byte) { _ = c.Send(op, p) }
}

// probeResponses caches the fixed probe endpoint responses of one
// testbed, so the steady-state request path serves pointers to immutable
// objects instead of building a Response per request. The HTTP server
// never mutates a handler response (close headers land on a scratch
// copy), which is what makes the sharing sound.
type probeResponses struct {
	container httpsim.Response
	postOK    httpsim.Response
	pong      httpsim.Response
}

func (pr *probeResponses) init() {
	pr.container = httpsim.Response{
		Status:  200,
		Headers: httpsim.Headers{{Key: "Content-Type", Value: "text/html"}},
		Body:    containerBody,
	}
	pr.postOK = httpsim.Response{Status: 200, Body: postOKBody}
	pr.pong = httpsim.Response{Status: 200, Body: pongBody}
}

var (
	containerBody = []byte("<html><body><script src=\"/measure.js\"></script></body></html>")
	postOKBody    = []byte("post-ok")
	pongBody      = []byte("pong")
)

// handle serves the measurement workloads: the container page that the
// preparation phase downloads, a small single-packet probe body for GET
// and POST requests, and bulk bodies for throughput measurement
// (/download?bytes=N).
func (pr *probeResponses) handle(req *httpsim.Request) *httpsim.Response {
	switch {
	case req.Target == "/container.html" || req.Target == "/":
		return &pr.container
	case strings.HasPrefix(req.Target, "/download"):
		n := downloadSize(req.Target)
		body := make([]byte, n)
		for i := range body {
			body[i] = byte('a' + i%26)
		}
		return &httpsim.Response{Status: 200, Body: body}
	case req.Method == "POST":
		return &pr.postOK
	default:
		return &pr.pong
	}
}

// downloadSize parses /download?bytes=N, clamped to [1, 4 MiB].
func downloadSize(target string) int {
	const def = 64 << 10
	_, query, ok := strings.Cut(target, "?")
	if !ok {
		return def
	}
	for _, kv := range strings.Split(query, "&") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok || k != "bytes" {
			continue
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return def
		}
		if n > 4<<20 {
			n = 4 << 20
		}
		return n
	}
	return def
}

// RTTBase returns the network RTT the testbed imposes on a single-packet
// request/response exchange, dominated by the server-side delay.
func (tb *Testbed) RTTBase() time.Duration { return tb.cfg.ServerDelay }

// StartCrossTraffic injects Poisson UDP cross traffic in both directions
// (client→server and server→client) at the given per-direction datagram
// rate and payload size. The paper's testbed excluded cross traffic; this
// knob shows what that control removes: queueing delay on the shared
// links, i.e. genuine network jitter. Returns the two generators so the
// caller can Stop them or read their counters.
func (tb *Testbed) StartCrossTraffic(rate float64, size int) (c2s, s2c *netsim.TrafficGen) {
	c2s = netsim.NewTrafficGen(tb.Sim, tb.ClientNIC, tb.ServerAddr, tb.ServerNIC.MAC, rate, size)
	s2c = netsim.NewTrafficGen(tb.Sim, tb.ServerNIC, tb.ClientNIC.Addr, tb.ClientNIC.MAC, rate, size)
	c2s.Start()
	s2c.Start()
	return c2s, s2c
}

// Advance idles the testbed for d of virtual time (e.g. the gap between
// experiment repetitions).
func (tb *Testbed) Advance(d time.Duration) { tb.Sim.Advance(d) }

// udpPortBase is the first client-side ephemeral UDP port NextUDPPort
// hands out (the bind is released after each run, but distinct ports keep
// late echoes from a previous run out of the next one's socket).
const udpPortBase uint16 = 40000

// NextUDPPort allocates a distinct client-side UDP port for a probe run on
// this testbed. Deterministic: the n-th call on any testbed returns
// udpPortBase+n (wrapping back to udpPortBase on overflow).
func (tb *Testbed) NextUDPPort() uint16 {
	p := udpPortBase + tb.nextUDPPort
	if p < udpPortBase { // wrapped
		tb.nextUDPPort = 0
		p = udpPortBase
	}
	tb.nextUDPPort++
	return p
}
