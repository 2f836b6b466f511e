package methods

import (
	"bytes"
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

// udpProbeTimeout is how long a train waits before declaring a UDP probe
// lost (Netalyzr-style tools use a few seconds; 2 s keeps trains fast).
const udpProbeTimeout = 2 * time.Second

// cacheHitCost models serving an <img>/<script> from the browser cache:
// sub-millisecond, no network involvement.
const cacheHitCost = 300 * time.Microsecond

var (
	probeBody     = []byte("probe-body")
	policyRequest = []byte("<policy-file-request/>\x00")
)

// Shape is what one drive measures: how many rounds, whether the one
// round is a bulk transfer, and how long a Java UDP round waits.
type Shape struct {
	// Rounds is the number of rounds K. Every round after the first
	// reuses the measurement object, so its send path is warm.
	Rounds int
	// Bulk, when positive, makes the drive's round a bulk transfer: an
	// HTTP method downloads a Bulk-byte body from /download, a socket
	// method sends a Bulk-byte message and waits until all of it has
	// echoed back. The capture is cleared when the round starts, so it
	// holds the transfer's wire window and none of the preparation.
	Bulk int
	// GiveUp, when positive, is how long a Java UDP round waits for its
	// echo before the round counts as lost. Zero re-sends the probe every
	// 500 ms until it is answered.
	GiveUp time.Duration
	// Deadline is the virtual time the drive may take.
	Deadline time.Duration
}

// Train is the shape of a probes-long train (10 when probes <= 0), the
// jitter and loss experiments' drive: a Java UDP probe left unanswered
// for 2 s counts as lost.
func Train(probes int) Shape {
	if probes <= 0 {
		probes = 10
	}
	return Shape{Rounds: probes, GiveUp: udpProbeTimeout, Deadline: time.Duration(probes)*5*time.Second + 30*time.Second}
}

// Transfer is the shape of one size-byte bulk transfer (64 KiB when size
// <= 0), the round-trip throughput experiment's drive.
func Transfer(size int) Shape {
	if size <= 0 {
		size = 64 << 10
	}
	return Shape{Rounds: 1, Bulk: size, Deadline: 60 * time.Second}
}

// Result holds the browser-level observations of one drive.
type Result struct {
	Kind Kind
	// ServerPort is the service port the probes used; the capture-side
	// RTT matcher needs it.
	ServerPort uint16
	// TBs and TBr are the browser timestamps (taken through the selected
	// timing API) for each round. A zero TBr marks a round the tool gave
	// up on (see Shape.GiveUp).
	TBs, TBr []time.Duration
	// NewConnRounds marks rounds whose request required opening a fresh
	// TCP connection (the Table 3 mechanism).
	NewConnRounds []bool
	// SendCosts and RecvCosts record the browser-path delays actually
	// drawn for each round, enabling overhead attribution (how much of Δd
	// is send path, receive path, handshake, or clock error).
	SendCosts, RecvCosts []time.Duration
	// Lost is the number of rounds the tool counted lost.
	Lost int
	// Bytes is the transfer's size; zero unless the shape had Bulk set.
	Bytes int
}

// BrowserRTT returns tBr − tBs for round (1-based), the RTT the
// measurement tool would report.
func (r *Result) BrowserRTT(round int) time.Duration {
	return r.TBr[round-1] - r.TBs[round-1]
}

// BrowserRTTs returns the browser-level RTTs of the answered rounds.
func (r *Result) BrowserRTTs() []time.Duration {
	out := make([]time.Duration, 0, len(r.TBs)-r.Lost)
	for i := range r.TBs {
		if r.TBr[i] != 0 {
			out = append(out, r.TBr[i]-r.TBs[i])
		}
	}
	return out
}

// LossRate returns the tool-reported loss fraction.
func (r *Result) LossRate() float64 {
	if len(r.TBs) == 0 {
		return 0
	}
	return float64(r.Lost) / float64(len(r.TBs))
}

// BrowserThroughput is the tool-computed round-trip throughput (bit/s)
// of a transfer: its bytes over its one round's tBr − tBs.
func (r *Result) BrowserThroughput() float64 {
	if len(r.TBs) == 0 {
		return 0
	}
	d := (r.TBr[0] - r.TBs[0]).Seconds()
	if d <= 0 {
		return 0
	}
	return float64(r.Bytes) * 8 / d
}

// Runner executes measurement methods in a browser profile on a testbed.
//
// A Runner is reusable: successive drives recycle all per-drive state
// (result storage, client connections, event callbacks), so the
// steady-state cost of a run is dominated by the simulation itself rather
// than by setup allocations. Config fields (Profile, Timing, …) must not
// change between drives on the same Runner.
type Runner struct {
	TB      *testbed.Testbed
	Profile *browser.Profile
	// Timing selects the timestamping API (the paper's default is
	// Date.getTime; Section 4.2 switches Java methods to System.nanoTime).
	Timing browser.TimingFunc
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

	// sh is the current drive's shape; res is the reused result storage
	// handed out by Drive, valid until the next drive on this Runner. Its
	// per-round slices live on durs and conns, which start on the inline
	// arrays and grow only for drives of more than Rounds rounds.
	sh    Shape
	res   Result
	durs  []time.Duration
	conns []bool
	durA  [4 * Rounds]time.Duration
	connA [Rounds]bool
	done  bool
	fail  error

	// dialed holds the client connections of the current drive, on
	// dialedBuf's storage until a drive dials more (a run dials at most
	// three), and onClose is the close handler each of them gets (see
	// dial).
	dialed    []*tcpsim.Conn
	dialedBuf [4]*tcpsim.Conn
	onClose   func(error)

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
// until the next drive. Callers that need it longer must copy it.
func (r *Runner) Run(kind Kind) (*Result, error) {
	return r.Drive(kind, Shape{Rounds: Rounds, Deadline: 30 * time.Second})
}

// Drive executes one measurement of kind in shape sh: the preparation
// phase (container page, or socket connect), then sh.Rounds rounds on the
// method's one round machine per transport. Run, trains and transfers
// are all drives; they differ only in their Shape.
//
// Drive steps the simulator until the measurement finishes, then
// releases what it opened (see release). A measurement that ends early
// gets an error saying why: one of its connections was reset or aborted
// (the tcpsim reason), the event queue drained with virtual time to
// spare (it stalled), or its deadline passed. The returned Result is
// valid until the next drive.
func (r *Runner) Drive(kind Kind, sh Shape) (*Result, error) {
	spec := Get(kind)
	if !r.Profile.Supports(spec.API) {
		return nil, fmt.Errorf("%w: %s cannot run %s", ErrUnsupported, r.Profile.Label(), spec.Name)
	}
	if sh.Bulk > 0 && kind == JavaUDP {
		return nil, fmt.Errorf("methods: throughput unsupported for %s", spec.Name)
	}
	if r.clk == nil || r.clkAPI != spec.API {
		r.clk = r.Profile.Clock(spec.API, r.Timing, r.TB.Sim.Now)
		r.clkAPI = spec.API
	}
	r.done, r.fail = false, nil
	r.sh = sh
	r.resetResult(kind)

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

	start := r.TB.Sim.Now()
	for !r.done && r.TB.Sim.Now() < start+sh.Deadline && r.TB.Sim.Pending() > 0 {
		r.TB.Sim.Step()
	}
	r.release()
	runSpan.Done()
	r.ss.retry.Cancel()
	switch elapsed := r.TB.Sim.Now() - start; {
	case r.fail != nil:
		return nil, r.fail
	case r.done:
		return &r.res, nil
	case elapsed < sh.Deadline:
		return nil, fmt.Errorf("methods: %s stalled after %v (virtual): event queue drained", spec.Name, elapsed)
	default:
		return nil, fmt.Errorf("methods: %s timed out after %v (virtual)", spec.Name, sh.Deadline)
	}
}

// resetResult points res at zeroed per-round storage for the current
// shape's rounds.
func (r *Runner) resetResult(kind Kind) {
	k := r.sh.Rounds
	if r.durs == nil {
		r.durs, r.conns = r.durA[:], r.connA[:]
	}
	if len(r.durs) < 4*k {
		r.durs, r.conns = make([]time.Duration, 4*k), make([]bool, k)
	}
	clear(r.durs[:4*k])
	clear(r.conns[:k])
	r.res = Result{
		Kind:          kind,
		TBs:           r.durs[0:k:k],
		TBr:           r.durs[k : 2*k : 2*k],
		SendCosts:     r.durs[2*k : 3*k : 3*k],
		RecvCosts:     r.durs[3*k : 4*k : 4*k],
		NewConnRounds: r.conns[:k:k],
		Bytes:         r.sh.Bulk,
	}
}

// openRound starts round k: the measurement code stamps tBs, then the
// request descends through the engine/plugin layers (SendCost) before
// after runs and any packet can leave. A transfer round first clears the
// capture, so that it holds the transfer's wire window alone. It returns
// the round's span and its send-path span.
func (r *Runner) openRound(k int, spec Spec, newConn bool, after func()) (round, sendPath *obs.Span) {
	if r.sh.Bulk > 0 {
		r.TB.Cap.Reset()
	}
	tr := r.TB.Trace
	round = tr.Begin("round").
		Int("run", int64(r.RunIndex)).
		Int("round", int64(k)).
		Bool("new_conn", newConn)
	r.res.TBs[k-1] = r.readClock(r.clk, "tBs", k)
	sendCost := r.Profile.SendCost(spec.API, k, spec.Post, r.TB.Sim.Rand())
	r.res.SendCosts[k-1] = sendCost
	r.TB.Metrics.ObserveDur("stage_send_path_ms", sendCost)
	sendPath = tr.Begin("send-path").Int("run", int64(r.RunIndex)).Int("round", int64(k))
	r.TB.Sim.Schedule(sendCost, after)
	return round, sendPath
}

// dispatch starts round k's receive path: the reply has reached the
// stack, and the browser still has to dispatch the event or cross the
// plugin bridge (RecvCost) before after runs and the measurement code
// can take tBr. It returns the event-dispatch span.
func (r *Runner) dispatch(k int, api browser.API, after func()) *obs.Span {
	recvCost := r.Profile.RecvCost(api, r.TB.Sim.Rand())
	r.res.RecvCosts[k-1] = recvCost
	r.TB.Metrics.ObserveDur("stage_event_dispatch_ms", recvCost)
	span := r.TB.Trace.Begin("event-dispatch").Int("run", int64(r.RunIndex)).Int("round", int64(k))
	r.TB.Sim.Schedule(recvCost, after)
	return span
}

// endRound ends round k and its span: an answered round stamps tBr, a
// lost one is counted. It reports whether another round follows; after
// the last, the drive finishes.
func (r *Runner) endRound(k int, span *obs.Span, lost bool) bool {
	if lost {
		r.res.Lost++
	} else {
		r.res.TBr[k-1] = r.readClock(r.clk, "tBr", k)
	}
	span.Done()
	if k < r.sh.Rounds {
		return true
	}
	r.finish(nil)
	return false
}

// release ends the Runner's part in the drive that just ended. Every
// connection the drive dialed loses its callbacks and its sink, so a
// late segment, reset or abort on it cannot fail or be credited to a
// later drive; the Runner drops its pointers to them, since the next
// BeginRun may recycle their records (see tcpsim.Stack.Forget); and the
// UDP port a Java UDP socket holds is released.
func (r *Runner) release() {
	for i, c := range r.dialed {
		c.OnEstablished, c.OnClose, c.Sink = nil, nil, nil
		r.dialed[i] = nil
	}
	r.dialed = r.dialed[:0]
	r.sc.tcp, r.sc.ws = nil, nil
	r.fp.pc = nil
	r.hs.container.Conn, r.hs.fresh.Conn = nil, nil
	if r.sc.udpOpen {
		r.TB.Client.CloseUDP(r.sc.udpPort)
		r.sc.udpOpen = false
	}
}

// dial opens a client connection to the server's port and gives it the
// Runner's one close handler: a connection that ends with a reason (a
// reset or an abort) fails the measurement with that reason. A failed
// dial fails the measurement and returns nil.
func (r *Runner) dial(port uint16) *tcpsim.Conn {
	tcp, err := r.TB.Client.Dial(r.TB.ServerAddr, port)
	if err != nil {
		r.finish(err)
		return nil
	}
	if r.onClose == nil {
		r.onClose = func(err error) {
			if err != nil {
				r.finish(err)
			}
		}
		r.dialed = r.dialedBuf[:0]
	}
	tcp.OnClose = r.onClose
	r.dialed = append(r.dialed, tcp)
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

// httpState is the Runner's round machine for the HTTP-based methods:
// XHR GET/POST, DOM, Flash GET/POST, Java GET/POST. Its callbacks are
// allocated once per Runner and capture only the state pointer;
// everything per-drive is a plain field reset by begin.
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

	// targets caches probeTarget renderings per round on targetA's
	// storage until a drive has more rounds; the probe URL depends only
	// on (kind, round). download is a transfer's target.
	targets  []string
	targetA  [Rounds]string
	tKind    Kind
	download string

	roundSpan, reqSpan, spSpan, edSpan, hsSpan *obs.Span

	onContainerEst  func()
	onContainerResp func(*httpsim.Response)
	startRound1     func()
	afterSend       func()
	onNewEst        func()
	onProbeResp     func(*httpsim.Response)
	afterRecv       func()
}

func (s *httpState) begin(r *Runner, spec Spec) {
	s.r = r
	s.spec = spec
	s.policy = r.Profile.HTTPConnPolicy(spec.API, spec.Post)
	s.k = 0
	s.freshSet = false
	s.cur = nil
	if s.targets == nil || s.tKind != spec.Kind {
		s.tKind = spec.Kind
		s.targets = s.targetA[:0]
	}
	for len(s.targets) < r.sh.Rounds {
		s.targets = append(s.targets, probeTarget(spec.Kind, len(s.targets)+1))
	}
	if r.sh.Bulk > 0 {
		s.download = "/download?bytes=" + strconv.Itoa(r.sh.Bulk)
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
		if n := r.sh.Bulk; n > 0 && len(resp.Body) != n {
			r.finish(fmt.Errorf("methods: download got %d of %d bytes", len(resp.Body), n))
			return
		}
		s.edSpan = r.dispatch(s.k, s.spec.API, s.afterRecv)
	}
	s.afterRecv = func() {
		s.edSpan.Done()
		if s.r.endRound(s.k, s.roundSpan, false) {
			s.round(s.k + 1)
		}
	}
}

// round starts round k, opening a fresh connection for it when the
// method's connection policy asks for one.
func (s *httpState) round(k int) {
	s.k = k
	s.needNew = s.policy == browser.PolicyNewAlways ||
		(s.policy == browser.PolicyNewOnFirst && !s.freshSet)
	s.roundSpan, s.spSpan = s.r.openRound(k, s.spec, s.needNew, s.afterSend)
}

func (s *httpState) probe() {
	r, k := s.r, s.k
	target := s.targets[k-1]
	if r.sh.Bulk > 0 {
		target = s.download
	} else if s.spec.Kind == DOM && r.DisableCacheBust {
		target = "/probe.img" // identical URL every round
		if r.domCached == nil {
			r.domCached = make(map[string]bool)
		}
		if r.domCached[target] {
			// Cache hit: the onload event fires without any packet
			// leaving the host.
			recvCost := r.Profile.RecvCost(s.spec.API, r.TB.Sim.Rand())
			s.edSpan = r.TB.Trace.Begin("event-dispatch").Int("run", int64(r.RunIndex)).Int("round", int64(k)).Bool("cache_hit", true)
			r.TB.Sim.Schedule(cacheHitCost+recvCost, s.afterRecv)
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

// policyState is the Runner's persistent state for the Flash plugin's
// crossdomain policy exchange on port 843 (preparation phase, outside the
// timed window). Success invokes next; a reset or abort of the policy
// connection before the policy arrives fails the run.
type policyState struct {
	r    *Runner
	pc   *tcpsim.Conn
	next func()

	onEst func()
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
	}
	if s.pc = r.dial(testbed.FlashPolicyPort); s.pc != nil {
		s.pc.OnEstablished = s.onEst
		s.pc.Sink = s
	}
}

// ConnData implements tcpsim.DataSink: the policy is in. The connection
// stops listening at once, so that the server's close after the policy,
// or a reset of it, cannot fail this run or reach a later run's fetch.
func (s *policyState) ConnData(c *tcpsim.Conn, _ []byte) {
	c.Sink, c.OnClose = nil, nil
	s.next()
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

// sockConn is the one connect path of the socket methods: the WebSocket
// dial and upgrade, the TCP echo dial (behind the socket-policy fetch for
// Flash) and the UDP listen. It calls open once the socket can carry
// probes and echo with every echo that arrives, and it is the TCP echo
// connection's sink. Its callbacks are allocated once per Runner.
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

	dialEcho func()
	onWSEst  func()
	onWSMsg  func(wssim.Opcode, []byte)
	onUDP    func(netip.Addr, uint16, []byte)
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
			c.tcp.Sink = c
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

// ConnData implements tcpsim.DataSink for the TCP echo connection.
func (c *sockConn) ConnData(_ *tcpsim.Conn, b []byte) { c.echo(b) }

// sockState is the Runner's round machine for the socket-based methods:
// WebSocket, Flash TCP, Java TCP and Java UDP. Socket methods connect
// during preparation, so no round ever opens a fresh connection.
type sockState struct {
	r    *Runner
	spec Spec

	k       int // current round, 1-based
	pending int // round awaiting its echo; 0 when none
	// sent is the pending round's message, and got counts the bytes of
	// it echoed so far.
	sent []byte
	got  int

	// payloads caches payloadFor renderings per round on payloadA's
	// storage until a drive has more rounds; the probe payload depends
	// only on (kind, round).
	payloads [][]byte
	payloadA [Rounds][]byte
	pKind    Kind

	// retry is the pending Java UDP round's timer (see initCallbacks).
	retry eventsim.Event

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
	if s.payloads == nil || s.pKind != spec.Kind {
		s.pKind = spec.Kind
		s.payloads = s.payloadA[:0]
	}
	for len(s.payloads) < r.sh.Rounds {
		s.payloads = append(s.payloads, payloadFor(spec.Kind, len(s.payloads)+1))
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
		s.edSpan.Done()
		if s.r.endRound(s.k, s.roundSpan, false) {
			s.round(s.k + 1)
		}
	}
	// UDP has no transport-layer recovery, so a single lost datagram
	// would hang the round until the drive's deadline. Real Java probes
	// guard against this with SO_TIMEOUT: a run re-sends while the round
	// is still open, a train gives the probe up as lost (Shape.GiveUp).
	// On a clean link the timer never fires usefully (the echo lands
	// ~RTT after the send) and consumes no randomness, so clean-path
	// results are unchanged; the duplicate-echo guard in onEcho absorbs
	// the case where both the original and a retry are answered.
	s.retryFn = func() {
		k := s.pending // the echo cancels the timer, so the round is open
		if s.r.sh.GiveUp > 0 {
			s.pending = 0
			s.reqSpan.Done()
			if s.r.endRound(k, s.roundSpan, true) {
				s.round(k + 1)
			}
			return
		}
		s.r.sc.send(s.sent)
		s.arm()
	}
	s.startRound1 = func() { s.round(1) }
	s.onEchoFn = s.onEcho
}

// round starts round k.
func (s *sockState) round(k int) {
	s.k = k
	s.roundSpan, s.spSpan = s.r.openRound(k, s.spec, false, s.afterSend)
}

func (s *sockState) sendProbe() {
	s.pending, s.got = s.k, 0
	s.sent = s.payloads[s.k-1]
	if n := s.r.sh.Bulk; n > 0 {
		s.sent = make([]byte, n)
	}
	s.r.sc.send(s.sent)
	if s.spec.Kind == JavaUDP {
		s.arm()
	}
}

// arm starts the pending round's UDP timer: the give-up wait of the
// shape, or the resend interval when it has none.
func (s *sockState) arm() {
	wait := udpRetryTimeout
	if s.r.sh.GiveUp > 0 {
		wait = s.r.sh.GiveUp
	}
	s.retry = s.r.TB.Sim.Schedule(wait, s.retryFn)
}

// onEcho credits echoed bytes to the pending round. A datagram must carry
// the pending round's own payload: a late echo of an earlier round, given
// up on or re-sent, is not credited to a later one. On a stream (TCP or
// WebSocket) the round completes once all the bytes it sent are back.
func (s *sockState) onEcho(p []byte) {
	r := s.r
	k := s.pending
	if k == 0 {
		// A duplicate echo for a round that already completed (frame
		// duplication on an impaired link, or a datagram answered both
		// late and via retry). The first copy closed the round; any
		// further copy must not restart the dispatch path.
		return
	}
	if s.spec.Kind == JavaUDP {
		if !bytes.Equal(p, s.sent) {
			return
		}
		s.retry.Cancel()
	} else if s.got += len(p); s.got < len(s.sent) {
		return
	}
	s.pending = 0
	s.reqSpan.Done()
	s.edSpan = r.dispatch(k, s.spec.API, s.afterRecv)
}
