package methods

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"github.com/browsermetric/browsermetric/internal/eventsim"
	"github.com/browsermetric/browsermetric/internal/httpsim"
	"github.com/browsermetric/browsermetric/internal/testbed"
	"github.com/browsermetric/browsermetric/internal/wssim"
)

// TrainResult holds the browser-level observations of a probe train: K
// sequential probes over one measurement object. Trains drive the
// jitter-impact and loss-measurement experiments (Table 1 lists RTT, Tput
// and — for UDP — Loss as the metrics these methods compute).
type TrainResult struct {
	Kind       Kind
	ServerPort uint16
	// TBs and TBr per probe; a zero TBr marks a probe the tool gave up on
	// (UDP timeout → counted as lost).
	TBs, TBr []time.Duration
	// Lost is the number of probes the tool classified as lost.
	Lost int
}

// BrowserRTTs returns the browser-level RTTs of the answered probes.
func (t *TrainResult) BrowserRTTs() []time.Duration {
	var out []time.Duration
	for i := range t.TBs {
		if t.TBr[i] != 0 {
			out = append(out, t.TBr[i]-t.TBs[i])
		}
	}
	return out
}

// LossRate returns the tool-reported loss fraction.
func (t *TrainResult) LossRate() float64 {
	if len(t.TBs) == 0 {
		return 0
	}
	return float64(t.Lost) / float64(len(t.TBs))
}

// udpProbeTimeout is how long the tool waits before declaring a UDP probe
// lost (Netalyzr-style tools use a few seconds; 2 s keeps trains fast).
const udpProbeTimeout = 2 * time.Second

// RunTrain performs a K-probe train with the given method. HTTP methods
// issue K sequential requests on the reused connection; socket methods
// send K sequential messages on the established socket; the UDP method
// additionally applies a per-probe timeout and counts losses.
func (r *Runner) RunTrain(kind Kind, probes int) (*TrainResult, error) {
	if probes <= 0 {
		probes = 10
	}
	spec := Get(kind)
	if !r.Profile.Supports(spec.API) {
		return nil, fmt.Errorf("%w: %s cannot run %s", ErrUnsupported, r.Profile.Label(), spec.Name)
	}
	timeout := r.Timeout
	if timeout == 0 {
		timeout = time.Duration(probes)*5*time.Second + 30*time.Second
	}
	clk := r.Profile.Clock(spec.API, r.Timing, r.TB.Sim.Now)
	res := &TrainResult{
		Kind: kind,
		TBs:  make([]time.Duration, probes),
		TBr:  make([]time.Duration, probes),
	}

	done := false
	fail := error(nil)
	finish := func(err error) { done, fail = true, err }

	var cleanup func()
	if spec.Transport == TransportHTTP {
		res.ServerPort = testbed.HTTPPort
		r.trainHTTP(spec, clk.Now, res, probes, finish)
	} else {
		cleanup = r.trainSocket(spec, clk.Now, res, probes, finish)
	}

	start := r.TB.Sim.Now()
	deadline := start + timeout
	for !done && r.TB.Sim.Now() < deadline && r.TB.Sim.Pending() > 0 {
		r.TB.Sim.Step()
	}
	if cleanup != nil {
		cleanup()
	}
	if fail != nil {
		return nil, fail
	}
	if !done {
		return nil, errUnfinished(r.TB.Sim, spec.Name+" train", start, timeout)
	}
	return res, nil
}

func (r *Runner) trainHTTP(spec Spec, now func() time.Duration, res *TrainResult, probes int, finish func(error)) {
	sim := r.TB.Sim
	rng := sim.Rand()
	tcp, err := r.TB.Client.Dial(r.TB.ServerAddr, testbed.HTTPPort)
	if err != nil {
		finish(err)
		return
	}
	cc := httpsim.NewClientConn(tcp)

	var probe func(i int)
	probe = func(i int) {
		res.TBs[i] = now()
		round := 2 // trains reuse the object: every probe is warm
		if i == 0 {
			round = 1
		}
		sim.Schedule(r.Profile.SendCost(spec.API, round, spec.Post, rng), func() {
			req := &httpsim.Request{
				Method: "GET",
				Target: fmt.Sprintf("/probe?train=%d", i),
			}
			if spec.Post {
				req.Method = "POST"
				req.Body = []byte("probe-body")
			}
			if err := cc.RoundTrip(req, func(resp *httpsim.Response) {
				if resp.Status != 200 {
					finish(fmt.Errorf("methods: train probe status %d", resp.Status))
					return
				}
				sim.Schedule(r.Profile.RecvCost(spec.API, rng), func() {
					res.TBr[i] = now()
					if i+1 < probes {
						probe(i + 1)
					} else {
						finish(nil)
					}
				})
			}); err != nil {
				finish(err)
			}
		})
	}
	tcp.OnEstablished = func() { probe(0) }
}

func (r *Runner) trainSocket(spec Spec, now func() time.Duration, res *TrainResult, probes int, finish func(error)) (cleanup func()) {
	sim := r.TB.Sim
	rng := sim.Rand()

	var probe func(i int)
	var sendProbe func(i int, payload []byte)
	current := -1
	var timeoutEv eventsim.Event

	// onEcho attributes an echo to probe i. Callers that can identify the
	// probe from the payload pass its index; -1 means "the current one".
	onEcho := func(idx int) {
		i := idx
		if i < 0 {
			i = current
		}
		if i != current || i < 0 || res.TBr[i] != 0 {
			return // stale echo: a reply to an already-timed-out probe
		}
		timeoutEv.Cancel() // no-op on the zero handle
		sim.Schedule(r.Profile.RecvCost(spec.API, rng), func() {
			res.TBr[i] = now()
			if i+1 < probes {
				probe(i + 1)
			} else {
				finish(nil)
			}
		})
	}

	probe = func(i int) {
		current = i
		res.TBs[i] = now()
		round := 2
		if i == 0 {
			round = 1
		}
		sim.Schedule(r.Profile.SendCost(spec.API, round, false, rng), func() {
			sendProbe(i, payloadFor(spec.Kind, i))
			if spec.Kind == JavaUDP {
				timeoutEv = sim.Schedule(udpProbeTimeout, func() {
					if res.TBr[i] != 0 {
						return
					}
					res.Lost++
					if i+1 < probes {
						probe(i + 1)
					} else {
						finish(nil)
					}
				})
			}
		})
	}

	switch spec.Kind {
	case WebSocket:
		res.ServerPort = testbed.WSPort
		tcp, err := r.TB.Client.Dial(r.TB.ServerAddr, testbed.WSPort)
		if err != nil {
			finish(err)
			return nil
		}
		tcp.OnEstablished = func() {
			ws, err := wssim.Dial(tcp, "server", "/ws")
			if err != nil {
				finish(err)
				return
			}
			sendProbe = func(_ int, payload []byte) { _ = ws.Send(wssim.OpBinary, payload) }
			ws.OnMessage = func(_ wssim.Opcode, _ []byte) { onEcho(-1) }
			ws.OnOpen = func() { probe(0) }
		}

	case FlashTCP, JavaTCP:
		res.ServerPort = testbed.TCPEchoPort
		tcp, err := r.TB.Client.Dial(r.TB.ServerAddr, testbed.TCPEchoPort)
		if err != nil {
			finish(err)
			return nil
		}
		sendProbe = func(_ int, payload []byte) { _ = tcp.Send(payload) }
		tcp.OnData = func([]byte) { onEcho(-1) }
		tcp.OnEstablished = func() { probe(0) }

	case JavaUDP:
		res.ServerPort = testbed.UDPEchoPort
		localPort := r.TB.NextUDPPort()
		if err := r.TB.Client.ListenUDP(localPort, func(_ netip.Addr, _ uint16, payload []byte) {
			// Datagrams carry the probe index; a late echo for an
			// already-timed-out probe must not be credited to the
			// current one.
			onEcho(parseProbeIndex(payload))
		}); err != nil {
			finish(err)
			return nil
		}
		cleanup = func() { r.TB.Client.CloseUDP(localPort) }
		sendProbe = func(_ int, payload []byte) {
			r.TB.Client.SendUDP(r.TB.ServerAddr, localPort, testbed.UDPEchoPort, payload)
		}
		probe(0)

	default:
		finish(fmt.Errorf("methods: %s is not socket-based", spec.Name))
	}
	return cleanup
}

// parseProbeIndex recovers the probe index from a payloadFor-style
// payload ("probe-<kind>-<idx>"); -1 when unparseable.
func parseProbeIndex(payload []byte) int {
	parts := strings.Split(string(payload), "-")
	if len(parts) != 3 || parts[0] != "probe" {
		return -1
	}
	idx, err := strconv.Atoi(parts[2])
	if err != nil {
		return -1
	}
	return idx
}

// ThroughputResult holds one bulk-transfer measurement.
type ThroughputResult struct {
	Kind       Kind
	ServerPort uint16
	Bytes      int
	// TBs is taken before issuing the transfer, TBr after the last byte
	// is delivered to the measurement code.
	TBs, TBr time.Duration
}

// BrowserThroughput is the tool-computed round-trip throughput (bit/s).
func (t *ThroughputResult) BrowserThroughput() float64 {
	d := (t.TBr - t.TBs).Seconds()
	if d <= 0 {
		return 0
	}
	return float64(t.Bytes) * 8 / d
}

// RunThroughput measures round-trip throughput with the given method:
// HTTP methods download a size-byte body from /download; socket methods
// echo a size-byte message through the server. The testbed capture's
// MatchTransfer provides the wire-level ground truth.
func (r *Runner) RunThroughput(kind Kind, size int) (*ThroughputResult, error) {
	if size <= 0 {
		size = 64 << 10
	}
	spec := Get(kind)
	if !r.Profile.Supports(spec.API) {
		return nil, fmt.Errorf("%w: %s cannot run %s", ErrUnsupported, r.Profile.Label(), spec.Name)
	}
	timeout := r.Timeout
	if timeout == 0 {
		timeout = 60 * time.Second
	}
	clk := r.Profile.Clock(spec.API, r.Timing, r.TB.Sim.Now)
	res := &ThroughputResult{Kind: kind, Bytes: size}

	done := false
	fail := error(nil)
	finish := func(err error) { done, fail = true, err }
	sim := r.TB.Sim
	rng := sim.Rand()

	complete := func() {
		sim.Schedule(r.Profile.RecvCost(spec.API, rng), func() {
			res.TBr = clk.Now()
			finish(nil)
		})
	}

	switch spec.Transport {
	case TransportHTTP:
		res.ServerPort = testbed.HTTPPort
		tcp, err := r.TB.Client.Dial(r.TB.ServerAddr, testbed.HTTPPort)
		if err != nil {
			return nil, err
		}
		cc := httpsim.NewClientConn(tcp)
		tcp.OnEstablished = func() {
			r.TB.Cap.Reset() // exclude handshake from the transfer window
			res.TBs = clk.Now()
			sim.Schedule(r.Profile.SendCost(spec.API, 1, false, rng), func() {
				req := &httpsim.Request{Method: "GET", Target: fmt.Sprintf("/download?bytes=%d", size)}
				if err := cc.RoundTrip(req, func(resp *httpsim.Response) {
					if resp.Status != 200 || len(resp.Body) != size {
						finish(fmt.Errorf("methods: download got %d bytes status %d", len(resp.Body), resp.Status))
						return
					}
					complete()
				}); err != nil {
					finish(err)
				}
			})
		}

	default:
		switch spec.Kind {
		case WebSocket:
			res.ServerPort = testbed.WSPort
			tcp, err := r.TB.Client.Dial(r.TB.ServerAddr, testbed.WSPort)
			if err != nil {
				return nil, err
			}
			tcp.OnEstablished = func() {
				ws, err := wssim.Dial(tcp, "server", "/ws")
				if err != nil {
					finish(err)
					return
				}
				got := 0
				ws.OnMessage = func(_ wssim.Opcode, p []byte) {
					got += len(p)
					if got >= size {
						complete()
					}
				}
				ws.OnOpen = func() {
					r.TB.Cap.Reset() // exclude dial+upgrade from the window
					res.TBs = clk.Now()
					sim.Schedule(r.Profile.SendCost(spec.API, 1, false, rng), func() {
						_ = ws.Send(wssim.OpBinary, make([]byte, size))
					})
				}
			}
		case FlashTCP, JavaTCP:
			res.ServerPort = testbed.TCPEchoPort
			tcp, err := r.TB.Client.Dial(r.TB.ServerAddr, testbed.TCPEchoPort)
			if err != nil {
				return nil, err
			}
			got := 0
			tcp.OnData = func(p []byte) {
				got += len(p)
				if got >= size {
					complete()
				}
			}
			tcp.OnEstablished = func() {
				r.TB.Cap.Reset() // exclude handshake from the window
				res.TBs = clk.Now()
				sim.Schedule(r.Profile.SendCost(spec.API, 1, false, rng), func() {
					_ = tcp.Send(make([]byte, size))
				})
			}
		default:
			return nil, fmt.Errorf("methods: throughput unsupported for %s", spec.Name)
		}
	}

	start := sim.Now()
	deadline := start + timeout
	for !done && sim.Now() < deadline && sim.Pending() > 0 {
		sim.Step()
	}
	if fail != nil {
		return nil, fail
	}
	if !done {
		return nil, errUnfinished(sim, spec.Name+" throughput", start, timeout)
	}
	return res, nil
}
