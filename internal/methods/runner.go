package methods

import (
	"fmt"
	"net/netip"
	"strconv"
	"time"

	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/clock"
	"github.com/browsermetric/browsermetric/internal/eventsim"
	"github.com/browsermetric/browsermetric/internal/httpsim"
	"github.com/browsermetric/browsermetric/internal/obs"
	"github.com/browsermetric/browsermetric/internal/tcpsim"
	"github.com/browsermetric/browsermetric/internal/testbed"
	"github.com/browsermetric/browsermetric/internal/wssim"
)

// Rounds is the number of back-to-back measurements per run (Δd1, Δd2).
const Rounds = 2

// udpRetryTimeout is the SO_TIMEOUT-style resend interval of the Java UDP
// probe: with no transport recovery underneath, a lost datagram (or lost
// echo) is re-sent after this long so an impaired link degrades the round
// instead of hanging it. Far above any clean-path RTT, so it never fires
// on the paper's pristine testbed.
const udpRetryTimeout = 500 * time.Millisecond

// cacheHitCost models serving an <img>/<script> from the browser cache:
// sub-millisecond, no network involvement.
const cacheHitCost = 300 * time.Microsecond

var (
	probeBody     = []byte("probe-body")
	policyRequest = []byte("<policy-file-request/>\x00")

	errEchoReset     = fmt.Errorf("methods: echo connection reset")
	errPolicyRefused = fmt.Errorf("methods: flash policy fetch refused")
)

// Result holds the browser-level observations of one run.
type Result struct {
	Kind Kind
	// ServerPort is the service port the probes used; the capture-side
	// RTT matcher needs it.
	ServerPort uint16
	// TBs and TBr are the browser timestamps (taken through the selected
	// timing API) for each round.
	TBs, TBr [Rounds]time.Duration
	// NewConnRounds marks rounds whose request required opening a fresh
	// TCP connection (the Table 3 mechanism).
	NewConnRounds [Rounds]bool
	// SendCosts and RecvCosts record the browser-path delays actually
	// drawn for each round, enabling overhead attribution (how much of Δd
	// is send path, receive path, handshake, or clock error).
	SendCosts, RecvCosts [Rounds]time.Duration
}

// BrowserRTT returns tBr − tBs for round (1-based), the RTT the
// measurement tool would report.
func (r *Result) BrowserRTT(round int) time.Duration {
	return r.TBr[round-1] - r.TBs[round-1]
}

// Runner executes measurement methods in a browser profile on a testbed.
//
// A Runner is reusable: successive Run calls recycle all per-run state
// (result storage, client connections, event callbacks), so the steady-state
// cost of a run is dominated by the simulation itself rather than by setup
// allocations. Config fields (Profile, Timing, …) must not change between
// runs on the same Runner.
type Runner struct {
	TB      *testbed.Testbed
	Profile *browser.Profile
	// Timing selects the timestamping API (the paper's default is
	// Date.getTime; Section 4.2 switches Java methods to System.nanoTime).
	Timing browser.TimingFunc
	// Timeout bounds one run, train or transfer in virtual time
	// (default 30 s for a run, probes·5 s + 30 s for a train, 60 s for
	// a transfer).
	Timeout time.Duration
	// DisableCacheBust removes the cache-busting query parameter from the
	// DOM method's probe URL, reproducing the Section 5 pitfall: the
	// second load of an identical <img>/<script> URL is served from the
	// browser cache, so the "measured RTT" collapses to the cache-hit
	// time and wildly under-estimates the network RTT.
	DisableCacheBust bool
	// RunIndex labels spans with the repetition number when the testbed
	// carries a tracer (core.RunContext sets it; purely observational).
	RunIndex int

	domCached map[string]bool

	// clk caches the Profile.Clock construction per timing API; clocks are
	// stateless (pure functions of the simulator time), so reuse across
	// runs cannot change any reading.
	clk    clock.Clock
	clkAPI browser.API

	// res is the reused result storage handed out by Run; it is valid
	// until the next Run call on this Runner.
	res  Result
	done bool
	fail error

	hs httpState
	ss sockState
	sc sockConn
	fp policyState
}

func (r *Runner) finish(err error) { r.done, r.fail = true, err }

// readClock takes a browser timestamp through clk and, when tracing,
// records a "clock-read" point carrying the quantization error
// (quantized − raw, in (−g, 0]) and the active granularity — the err
// term of the paper's Figures 4–5.
func (r *Runner) readClock(clk clock.Clock, at string, round int) time.Duration {
	t := clk.Now()
	if tr := r.TB.Trace; tr.Enabled() {
		p := tr.Point("clock-read").
			Str("at", at).
			Int("run", int64(r.RunIndex)).
			Int("round", int64(round)).
			Dur("err", t-r.TB.Sim.Now())
		if q, ok := clk.(*clock.Quantized); ok {
			p.Dur("granularity", q.Granularity())
		}
	}
	return t
}

// Run executes one full two-phase, two-round measurement and returns the
// browser-level result. Wire-level ground truth accumulates in the
// testbed's capture; callers typically Reset the capture before Run and
// MatchRTT afterwards.
//
// The returned Result is reused storage owned by the Runner: it is valid
// until the next Run call. Callers that need it longer must copy it.
func (r *Runner) Run(kind Kind) (*Result, error) {
	spec, err := r.begin(kind)
	if err != nil {
		return nil, err
	}
	r.res = Result{Kind: kind}

	var runSpan *obs.Span
	if tr := r.TB.Trace; tr.Enabled() {
		runSpan = tr.Begin("run").
			Str("method", spec.Name).
			Str("browser", r.Profile.Label()).
			Str("clock", r.clk.Name()).
			Int("run", int64(r.RunIndex))
	}

	if spec.Transport == TransportHTTP {
		r.res.ServerPort = testbed.HTTPPort
		r.hs.begin(r, spec)
	} else {
		r.ss.begin(r, spec)
	}
	err = r.drive(spec.Name, 30*time.Second)
	runSpan.Done()
	r.ss.retry.Cancel()
	if err != nil {
		return nil, err
	}
	return &r.res, nil
}

// begin is the preamble of every run, train and transfer: it checks that
// the profile supports kind, points the cached clock at kind's timing
// API and clears the finish state.
func (r *Runner) begin(kind Kind) (Spec, error) {
	spec := Get(kind)
	if !r.Profile.Supports(spec.API) {
		return spec, fmt.Errorf("%w: %s cannot run %s", ErrUnsupported, r.Profile.Label(), spec.Name)
	}
	if r.clk == nil || r.clkAPI != spec.API {
		r.clk = r.Profile.Clock(spec.API, r.Timing, r.TB.Sim.Now)
		r.clkAPI = spec.API
	}
	r.done, r.fail = false, nil
	return spec, nil
}

// drive is the one run loop of runs, trains and transfers. It steps the
// simulator until the measurement started on r finishes, then closes the
// socket (see sockConn.close). A measurement that ends early
// gets an error saying why: the event queue drained with virtual time to
// spare (it stalled, e.g. its connection aborted after repeated
// retransmission timeouts), or its virtual deadline (r.Timeout, else
// timeout) passed.
func (r *Runner) drive(what string, timeout time.Duration) error {
	if r.Timeout != 0 {
		timeout = r.Timeout
	}
	start := r.TB.Sim.Now()
	for !r.done && r.TB.Sim.Now() < start+timeout && r.TB.Sim.Pending() > 0 {
		r.TB.Sim.Step()
	}
	r.sc.close()
	r.dropConns()
	switch elapsed := r.TB.Sim.Now() - start; {
	case r.fail != nil:
		return r.fail
	case r.done:
		return nil
	case elapsed < timeout:
		return fmt.Errorf("methods: %s stalled after %v (virtual): event queue drained", what, elapsed)
	default:
		return fmt.Errorf("methods: %s timed out after %v (virtual)", what, timeout)
	}
}

// dropConns clears the Runner's pointers to the connections of the drive
// that just ended. The next BeginRun may recycle those connection
// records (see tcpsim.Stack.Forget), so no pointer to one may outlive its
// drive.
func (r *Runner) dropConns() {
	r.sc.tcp, r.sc.ws = nil, nil
	r.fp.pc = nil
	r.hs.container.Conn, r.hs.fresh.Conn = nil, nil
}

// dial opens a client connection to the server's port. A failed dial
// fails the measurement and returns nil.
func (r *Runner) dial(port uint16) *tcpsim.Conn {
	tcp, err := r.TB.Client.Dial(r.TB.ServerAddr, port)
	if err != nil {
		r.finish(err)
		return nil
	}
	return tcp
}

// dialHTTP is the one HTTP connect path: it dials the server's HTTP
// port, attaches cc to the connection and calls est once it is
// established.
func (r *Runner) dialHTTP(cc *httpsim.ClientConn, est func()) {
	if tcp := r.dial(testbed.HTTPPort); tcp != nil {
		cc.Attach(tcp)
		tcp.OnEstablished = est
	}
}

// httpState is the Runner's persistent state for the HTTP-based methods:
// XHR GET/POST, DOM, Flash GET/POST, Java GET/POST. Its callbacks are
// allocated once per Runner and capture only the state pointer; everything
// per-run is a plain field reset by begin.
type httpState struct {
	r    *Runner
	spec Spec

	policy  browser.ConnPolicy
	k       int // current round, 1-based
	needNew bool
	dialAt  time.Duration

	// container carries the preparation-phase page load and is what
	// PolicyReuse methods measure on; fresh is re-attached to each newly
	// dialed measurement connection (the one Opera Flash GET keeps under
	// PolicyNewOnFirst).
	container httpsim.ClientConn
	fresh     httpsim.ClientConn
	freshSet  bool
	cur       *httpsim.ClientConn
	in        *httpsim.Interner

	req httpsim.Request

	// targets caches probeTarget renderings per round; the probe URL
	// depends only on (kind, round).
	targets [Rounds]string
	tKind   Kind

	roundSpan, reqSpan, spSpan, edSpan, hsSpan *obs.Span

	onContainerEst  func()
	onContainerResp func(*httpsim.Response)
	startRound1     func()
	afterSend       func()
	onNewEst        func()
	onProbeResp     func(*httpsim.Response)
	afterRecv       func()
	afterCacheHit   func()
}

func (s *httpState) begin(r *Runner, spec Spec) {
	s.r = r
	s.spec = spec
	s.policy = r.Profile.HTTPConnPolicy(spec.API, spec.Post)
	s.k = 0
	s.freshSet = false
	s.cur = nil
	if s.targets[0] == "" || s.tKind != spec.Kind {
		s.tKind = spec.Kind
		for i := 0; i < Rounds; i++ {
			s.targets[i] = probeTarget(spec.Kind, i+1)
		}
	}
	if s.in == nil {
		s.in = httpsim.NewInterner()
		s.container.In, s.fresh.In = s.in, s.in
	}
	if s.req.Headers == nil {
		s.req.Headers = httpsim.Headers{{Key: "Host", Value: "server"}}
	}
	s.initCallbacks()

	// Preparation phase: download the container page on a keep-alive
	// connection. This connection is what PolicyReuse methods measure on.
	r.dialHTTP(&s.container, s.onContainerEst)
}

func (s *httpState) initCallbacks() {
	if s.afterSend != nil {
		return
	}
	s.onContainerEst = func() {
		s.req.Method, s.req.Target, s.req.Body = "GET", "/container.html", nil
		if err := s.container.RoundTrip(&s.req, s.onContainerResp); err != nil {
			s.r.finish(err)
		}
	}
	s.onContainerResp = func(resp *httpsim.Response) {
		if resp.Status != 200 {
			s.r.finish(fmt.Errorf("methods: container status %d", resp.Status))
			return
		}
		// Render the page, then start measuring. The capture is reset
		// at the measurement boundary by the caller; a small render
		// pause keeps preparation traffic clearly separated.
		s.r.TB.Sim.Schedule(time.Millisecond, s.startRound1)
	}
	s.startRound1 = func() { s.round(1) }
	s.afterSend = func() {
		r := s.r
		s.spSpan.Done()
		switch {
		case !s.needNew && s.freshSet:
			s.cur = &s.fresh
			s.probe()
		case !s.needNew:
			s.cur = &s.container
			s.probe()
		default:
			r.res.NewConnRounds[s.k-1] = true
			s.dialAt = r.TB.Sim.Now()
			s.hsSpan = r.TB.Trace.Begin("handshake").Int("run", int64(r.RunIndex)).Int("round", int64(s.k))
			r.dialHTTP(&s.fresh, s.onNewEst)
			s.freshSet = s.policy == browser.PolicyNewOnFirst
			s.cur = &s.fresh
		}
	}
	s.onNewEst = func() {
		r := s.r
		s.hsSpan.Done()
		r.TB.Metrics.ObserveDur("stage_handshake_ms", r.TB.Sim.Now()-s.dialAt)
		s.probe()
	}
	s.onProbeResp = func(resp *httpsim.Response) {
		r := s.r
		s.reqSpan.Done()
		if resp.Status != 200 {
			r.finish(fmt.Errorf("methods: probe status %d", resp.Status))
			return
		}
		// Response has reached the stack; the browser still has to
		// dispatch the event / cross the plugin bridge before the
		// measurement code can take tBr.
		recvCost := r.Profile.RecvCost(s.spec.API, r.TB.Sim.Rand())
		r.res.RecvCosts[s.k-1] = recvCost
		r.TB.Metrics.ObserveDur("stage_event_dispatch_ms", recvCost)
		s.edSpan = r.TB.Trace.Begin("event-dispatch").Int("run", int64(r.RunIndex)).Int("round", int64(s.k))
		r.TB.Sim.Schedule(recvCost, s.afterRecv)
	}
	s.afterRecv = func() {
		s.edSpan.Done()
		s.endRound()
	}
	s.afterCacheHit = func() {
		s.edSpan.Done()
		s.endRound()
	}
}

// round starts round k: the measurement code records tBs, then the request
// descends through the engine/plugin layers (SendCost) before any packet
// can leave.
func (s *httpState) round(k int) {
	r := s.r
	s.k = k
	s.needNew = s.policy == browser.PolicyNewAlways ||
		(s.policy == browser.PolicyNewOnFirst && !s.freshSet)
	tr := r.TB.Trace
	s.roundSpan = tr.Begin("round").
		Int("run", int64(r.RunIndex)).
		Int("round", int64(k)).
		Bool("new_conn", s.needNew)
	r.res.TBs[k-1] = r.readClock(r.clk, "tBs", k)
	sendCost := r.Profile.SendCost(s.spec.API, k, s.spec.Post, r.TB.Sim.Rand())
	r.res.SendCosts[k-1] = sendCost
	r.TB.Metrics.ObserveDur("stage_send_path_ms", sendCost)
	s.spSpan = tr.Begin("send-path").Int("run", int64(r.RunIndex)).Int("round", int64(k))
	r.TB.Sim.Schedule(sendCost, s.afterSend)
}

func (s *httpState) probe() {
	r, k := s.r, s.k
	target := s.targets[k-1]
	if s.spec.Kind == DOM && r.DisableCacheBust {
		target = "/probe.img" // identical URL every round
		if r.domCached == nil {
			r.domCached = make(map[string]bool)
		}
		if r.domCached[target] {
			// Cache hit: the onload event fires without any packet
			// leaving the host.
			recvCost := r.Profile.RecvCost(s.spec.API, r.TB.Sim.Rand())
			s.edSpan = r.TB.Trace.Begin("event-dispatch").Int("run", int64(r.RunIndex)).Int("round", int64(k)).Bool("cache_hit", true)
			r.TB.Sim.Schedule(cacheHitCost+recvCost, s.afterCacheHit)
			return
		}
		r.domCached[target] = true
	}
	s.req.Method, s.req.Target, s.req.Body = "GET", target, nil
	if s.spec.Post {
		s.req.Method = "POST"
		s.req.Body = probeBody
	}
	s.reqSpan = r.TB.Trace.Begin("request").Int("run", int64(r.RunIndex)).Int("round", int64(k)).Str("target", target)
	if err := s.cur.RoundTrip(&s.req, s.onProbeResp); err != nil {
		r.finish(err)
	}
}

// endRound stamps tBr and advances to the next round (or finishes).
func (s *httpState) endRound() {
	r, k := s.r, s.k
	r.res.TBr[k-1] = r.readClock(r.clk, "tBr", k)
	s.roundSpan.Done()
	if k < Rounds {
		s.round(k + 1)
	} else {
		r.finish(nil)
	}
}

// policyState is the Runner's persistent state for the Flash plugin's
// crossdomain policy exchange on port 843 (preparation phase, outside the
// timed window). Success invokes next; failure aborts the run.
type policyState struct {
	r    *Runner
	pc   *tcpsim.Conn
	next func()

	onEst   func()
	onData  func([]byte)
	onReset func()
}

func (r *Runner) fetchFlashPolicy(next func()) {
	s := &r.fp
	s.r = r
	s.next = next
	if s.onEst == nil {
		s.onEst = func() {
			if err := s.pc.Send(policyRequest); err != nil {
				s.r.finish(err)
			}
		}
		// Every policy connection shares these callbacks, so once the
		// policy is in, the connection drops them: a reset or a stray
		// segment on it must not reach a later run's fetch.
		s.onData = func([]byte) {
			s.pc.OnData, s.pc.OnReset = nil, nil
			s.next()
		}
		s.onReset = func() { s.r.finish(errPolicyRefused) }
	}
	if s.pc = r.dial(testbed.FlashPolicyPort); s.pc != nil {
		s.pc.OnEstablished = s.onEst
		s.pc.OnData = s.onData
		s.pc.OnReset = s.onReset
	}
}

// probeTarget renders "/probe?m=<kind>&r=<round>" with one allocation
// (the string conversion), replacing fmt.Sprintf on the per-round path.
func probeTarget(k Kind, round int) string {
	var buf [48]byte
	b := append(buf[:0], "/probe?m="...)
	b = strconv.AppendInt(b, int64(k), 10)
	b = append(b, "&r="...)
	b = strconv.AppendInt(b, int64(round), 10)
	return string(b)
}

// payloadFor builds a small single-packet probe payload.
func payloadFor(k Kind, round int) []byte {
	b := make([]byte, 0, 24)
	b = append(b, "probe-"...)
	b = strconv.AppendInt(b, int64(k), 10)
	b = append(b, '-')
	b = strconv.AppendInt(b, int64(round), 10)
	return b
}

// sockConn is the one connect path of the socket methods, shared by
// runs, trains and transfers: the WebSocket dial and upgrade, the TCP
// echo dial (behind the socket-policy fetch for Flash) and the UDP
// listen. It calls open once the socket can carry probes and echo with
// every echo that arrives. Its callbacks are allocated once per Runner.
type sockConn struct {
	r    *Runner
	kind Kind
	open func()
	echo func([]byte)

	ws      *wssim.Conn
	tcp     *tcpsim.Conn
	udpPort uint16
	udpOpen bool
	wsc     wssim.Client

	dialEcho   func()
	onWSEst    func()
	onWSMsg    func(wssim.Opcode, []byte)
	onTCPReset func()
	onUDP      func(netip.Addr, uint16, []byte)
}

// connect opens kind's socket and returns the server port it probes.
func (c *sockConn) connect(r *Runner, kind Kind, open func(), echo func([]byte)) uint16 {
	c.r, c.kind, c.open, c.echo = r, kind, open, echo
	c.ws, c.tcp = nil, nil
	if c.dialEcho == nil {
		c.initCallbacks()
	}
	switch kind {
	case WebSocket:
		if c.tcp = r.dial(testbed.WSPort); c.tcp != nil {
			c.tcp.OnEstablished = c.onWSEst
		}
		return testbed.WSPort
	case FlashTCP:
		// The Flash plugin fetches the socket policy file before it
		// allows any Socket connection; this happens in the
		// preparation phase, outside the timed window.
		r.fetchFlashPolicy(c.dialEcho)
		return testbed.TCPEchoPort
	case JavaTCP:
		c.dialEcho()
		return testbed.TCPEchoPort
	case JavaUDP:
		c.udpPort = r.TB.NextUDPPort()
		if err := r.TB.Client.ListenUDP(c.udpPort, c.onUDP); err != nil {
			r.finish(err)
		} else {
			c.udpOpen = true
			open()
		}
		return testbed.UDPEchoPort
	}
	r.finish(fmt.Errorf("methods: %s is not socket-based", Get(kind).Name))
	return 0
}

func (c *sockConn) initCallbacks() {
	c.dialEcho = func() {
		if c.tcp = c.r.dial(testbed.TCPEchoPort); c.tcp != nil {
			c.tcp.OnEstablished = c.open
			c.tcp.OnData = c.echo
			c.tcp.OnReset = c.onTCPReset
		}
	}
	c.onWSEst = func() {
		ws, err := c.wsc.Dial(c.tcp, "server", "/ws")
		if err != nil {
			c.r.finish(err)
			return
		}
		c.ws = ws
		ws.OnMessage = c.onWSMsg
		ws.OnOpen = c.open
	}
	c.onWSMsg = func(_ wssim.Opcode, p []byte) { c.echo(p) }
	c.onTCPReset = func() { c.r.finish(errEchoReset) }
	c.onUDP = func(_ netip.Addr, _ uint16, p []byte) { c.echo(p) }
}

// send transmits one message on the open socket; a failed send fails
// the measurement.
func (c *sockConn) send(p []byte) {
	var err error
	switch c.kind {
	case WebSocket:
		err = c.ws.Send(wssim.OpBinary, p)
	case JavaUDP:
		err = c.r.TB.Client.SendUDP(c.r.TB.ServerAddr, c.udpPort, testbed.UDPEchoPort, p)
	default:
		err = c.tcp.Send(p)
	}
	if err != nil {
		c.r.finish(err)
	}
}

// close ends the socket's part in a drive: it detaches the Runner's
// shared callbacks from the echo or WebSocket connection, as a policy
// connection does once its policy is in, so that a reset or a late echo
// on it cannot fail or be credited to a later run, and it releases the
// UDP port a Java UDP socket holds.
func (c *sockConn) close() {
	if c.tcp != nil {
		c.tcp.OnEstablished, c.tcp.OnData, c.tcp.OnReset = nil, nil, nil
	}
	if c.ws != nil {
		c.ws.OnOpen, c.ws.OnMessage = nil, nil
	}
	if c.udpOpen {
		c.r.TB.Client.CloseUDP(c.udpPort)
		c.udpOpen = false
	}
}

// sockState is the Runner's persistent state for the socket-based methods:
// WebSocket, Flash TCP, Java TCP and Java UDP. Socket methods connect
// during preparation, so no round ever opens a fresh connection.
type sockState struct {
	r    *Runner
	spec Spec

	k       int // current round, 1-based
	pending int // round awaiting its echo; 0 when none

	// payloads caches payloadFor renderings per round; the probe payload
	// depends only on (kind, round).
	payloads [Rounds][]byte
	pKind    Kind

	// UDP retry timer state (see initCallbacks).
	retry  eventsim.Event
	retryK int

	roundSpan, reqSpan, spSpan, edSpan *obs.Span

	afterSend   func()
	afterRecv   func()
	retryFn     func()
	startRound1 func()
	onEchoFn    func([]byte)
}

func (s *sockState) begin(r *Runner, spec Spec) {
	s.r = r
	s.spec = spec
	s.k = 0
	s.pending = 0
	s.retry = eventsim.Event{}
	if s.payloads[0] == nil || s.pKind != spec.Kind {
		s.pKind = spec.Kind
		for i := 0; i < Rounds; i++ {
			s.payloads[i] = payloadFor(spec.Kind, i+1)
		}
	}
	s.initCallbacks()
	r.res.ServerPort = r.sc.connect(r, spec.Kind, s.startRound1, s.onEchoFn)
}

func (s *sockState) initCallbacks() {
	if s.afterSend != nil {
		return
	}
	s.afterSend = func() {
		s.spSpan.Done()
		s.reqSpan = s.r.TB.Trace.Begin("request").Int("run", int64(s.r.RunIndex)).Int("round", int64(s.k))
		s.sendProbe()
	}
	s.afterRecv = func() {
		r, k := s.r, s.k
		s.edSpan.Done()
		r.res.TBr[k-1] = r.readClock(r.clk, "tBr", k)
		s.roundSpan.Done()
		if k < Rounds {
			s.round(k + 1)
		} else {
			r.finish(nil)
		}
	}
	// UDP has no transport-layer recovery, so a single lost datagram
	// would hang the round until the 30 s run timeout. Real Java probes
	// guard against this with SO_TIMEOUT and a resend; mirror that with
	// a retry timer that re-sends while the round is still open. On a
	// clean link the timer never fires usefully (the echo lands ~RTT
	// after the send) and consumes no randomness, so clean-path results
	// are unchanged; the duplicate-echo guard in onEcho absorbs the
	// case where both the original and a retry are answered.
	s.retryFn = func() {
		if s.pending != s.retryK {
			return // round already completed
		}
		s.r.sc.send(s.payloads[s.retryK-1])
		s.arm(s.retryK)
	}
	s.startRound1 = func() { s.round(1) }
	s.onEchoFn = func([]byte) { s.onEcho() }
}

// round runs the shared round logic: stamp tBs, descend the send path,
// transmit; the echo path ascends RecvCost before tBr.
func (s *sockState) round(k int) {
	r := s.r
	s.k = k
	tr := r.TB.Trace
	s.roundSpan = tr.Begin("round").
		Int("run", int64(r.RunIndex)).
		Int("round", int64(k)).
		Bool("new_conn", false)
	r.res.TBs[k-1] = r.readClock(r.clk, "tBs", k)
	sendCost := r.Profile.SendCost(s.spec.API, k, false, r.TB.Sim.Rand())
	r.res.SendCosts[k-1] = sendCost
	r.TB.Metrics.ObserveDur("stage_send_path_ms", sendCost)
	s.spSpan = tr.Begin("send-path").Int("run", int64(r.RunIndex)).Int("round", int64(k))
	r.TB.Sim.Schedule(sendCost, s.afterSend)
}

func (s *sockState) sendProbe() {
	s.pending = s.k
	s.r.sc.send(s.payloads[s.k-1])
	if s.spec.Kind == JavaUDP {
		s.arm(s.k)
	}
}

func (s *sockState) arm(k int) {
	s.retryK = k
	s.retry = s.r.TB.Sim.Schedule(udpRetryTimeout, s.retryFn)
}

func (s *sockState) onEcho() {
	r := s.r
	k := s.pending
	if k == 0 {
		// A duplicate echo for a round that already completed (frame
		// duplication on an impaired link, or a datagram answered both
		// late and via retry). The first copy closed the round; any
		// further copy must not restart the dispatch path.
		return
	}
	s.pending = 0
	s.reqSpan.Done()
	recvCost := r.Profile.RecvCost(s.spec.API, r.TB.Sim.Rand())
	r.res.RecvCosts[k-1] = recvCost
	r.TB.Metrics.ObserveDur("stage_event_dispatch_ms", recvCost)
	s.edSpan = r.TB.Trace.Begin("event-dispatch").Int("run", int64(r.RunIndex)).Int("round", int64(k))
	r.TB.Sim.Schedule(recvCost, s.afterRecv)
}
