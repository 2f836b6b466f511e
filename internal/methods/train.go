package methods

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/browsermetric/browsermetric/internal/eventsim"
	"github.com/browsermetric/browsermetric/internal/httpsim"
	"github.com/browsermetric/browsermetric/internal/testbed"
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
	spec, err := r.begin(kind)
	if err != nil {
		return nil, err
	}
	res := &TrainResult{
		Kind: kind,
		TBs:  make([]time.Duration, probes),
		TBr:  make([]time.Duration, probes),
	}
	sim := r.TB.Sim
	rng := sim.Rand()

	// advance starts the probe after i, or finishes the train; answered
	// stamps probe i's tBr once its reply has crossed the receive path,
	// then advances.
	var probe func(i int)
	advance := func(i int) {
		if i+1 < probes {
			probe(i + 1)
		} else {
			r.finish(nil)
		}
	}
	answered := func(i int) {
		sim.Schedule(r.Profile.RecvCost(spec.API, rng), func() {
			res.TBr[i] = r.clk.Now()
			advance(i)
		})
	}

	if spec.Transport == TransportHTTP {
		res.ServerPort = testbed.HTTPPort
		cc := &httpsim.ClientConn{}
		probe = func(i int) {
			res.TBs[i] = r.clk.Now()
			sim.Schedule(r.Profile.SendCost(spec.API, trainRound(i), spec.Post, rng), func() {
				req := &httpsim.Request{
					Method: "GET",
					Target: fmt.Sprintf("/probe?train=%d", i),
				}
				if spec.Post {
					req.Method = "POST"
					req.Body = probeBody
				}
				if err := cc.RoundTrip(req, func(resp *httpsim.Response) {
					if resp.Status != 200 {
						r.finish(fmt.Errorf("methods: train probe status %d", resp.Status))
						return
					}
					answered(i)
				}); err != nil {
					r.finish(err)
				}
			})
		}
		r.dialHTTP(cc, func() { probe(0) })
	} else {
		current := -1
		var timeoutEv eventsim.Event
		probe = func(i int) {
			current = i
			res.TBs[i] = r.clk.Now()
			sim.Schedule(r.Profile.SendCost(spec.API, trainRound(i), false, rng), func() {
				r.sc.send(payloadFor(spec.Kind, i))
				if spec.Kind == JavaUDP {
					timeoutEv = sim.Schedule(udpProbeTimeout, func() {
						if res.TBr[i] != 0 {
							return
						}
						res.Lost++
						advance(i)
					})
				}
			})
		}
		// onEcho attributes an echo to probe i; -1 means "the current
		// one". Datagrams carry the probe index, so a late echo for an
		// already-timed-out UDP probe is not credited to the current one.
		onEcho := func(i int) {
			if i < 0 {
				i = current
			}
			if i != current || i < 0 || res.TBr[i] != 0 {
				return // stale echo: a reply to an already-timed-out probe
			}
			timeoutEv.Cancel() // no-op on the zero handle
			answered(i)
		}
		echo := func([]byte) { onEcho(-1) }
		if kind == JavaUDP {
			echo = func(p []byte) { onEcho(parseProbeIndex(p)) }
		}
		res.ServerPort = r.sc.connect(r, kind, func() { probe(0) }, echo)
	}

	if err := r.drive(spec.Name+" train", time.Duration(probes)*5*time.Second+30*time.Second); err != nil {
		return nil, err
	}
	return res, nil
}

// trainRound is the send-path round of probe i: trains reuse the
// object, so every probe after the first is warm.
func trainRound(i int) int {
	if i == 0 {
		return 1
	}
	return 2
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
	spec, err := r.begin(kind)
	if err != nil {
		return nil, err
	}
	if kind == JavaUDP {
		return nil, fmt.Errorf("methods: throughput unsupported for %s", spec.Name)
	}
	res := &ThroughputResult{Kind: kind, Bytes: size}
	sim := r.TB.Sim
	rng := sim.Rand()

	// start opens the transfer window once the connection (and, for
	// WebSocket, the upgrade) is up, so the capture excludes the
	// handshake, and issues the transfer after the send path.
	start := func(transfer func()) {
		r.TB.Cap.Reset()
		res.TBs = r.clk.Now()
		sim.Schedule(r.Profile.SendCost(spec.API, 1, false, rng), transfer)
	}
	complete := func() {
		sim.Schedule(r.Profile.RecvCost(spec.API, rng), func() {
			res.TBr = r.clk.Now()
			r.finish(nil)
		})
	}

	if spec.Transport == TransportHTTP {
		res.ServerPort = testbed.HTTPPort
		cc := &httpsim.ClientConn{}
		r.dialHTTP(cc, func() {
			start(func() {
				req := &httpsim.Request{Method: "GET", Target: fmt.Sprintf("/download?bytes=%d", size)}
				if err := cc.RoundTrip(req, func(resp *httpsim.Response) {
					if resp.Status != 200 || len(resp.Body) != size {
						r.finish(fmt.Errorf("methods: download got %d bytes status %d", len(resp.Body), resp.Status))
						return
					}
					complete()
				}); err != nil {
					r.finish(err)
				}
			})
		})
	} else {
		got := 0
		res.ServerPort = r.sc.connect(r, kind, func() {
			start(func() { r.sc.send(make([]byte, size)) })
		}, func(p []byte) {
			got += len(p)
			if got >= size {
				complete()
			}
		})
	}

	if err := r.drive(spec.Name+" throughput", 60*time.Second); err != nil {
		return nil, err
	}
	return res, nil
}
