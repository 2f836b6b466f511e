package core

import (
	"context"
	"fmt"
	"time"

	"github.com/browsermetric/browsermetric/internal/methods"
	"github.com/browsermetric/browsermetric/internal/stats"
	"github.com/browsermetric/browsermetric/internal/testbed"
)

// Attribution decomposes one overhead sample into its mechanisms: the
// send path (engine/plugin work before the request hits the stack), the
// receive path (event dispatch before tBr), the connection handshake when
// a fresh TCP connection was opened, and a residual dominated by the
// timing API's quantization error (plus sub-ms stack/wire effects).
type Attribution struct {
	SendPath  time.Duration
	RecvPath  time.Duration
	Handshake time.Duration
	Residual  time.Duration
}

// Attribute decomposes a sample. handshakeRTT is the path RTT a fresh
// connection's SYN/SYN-ACK costs (the testbed's RTTBase); it is counted
// only for samples flagged Handshake.
func Attribute(s Sample, sendCost, recvCost, handshakeRTT time.Duration) Attribution {
	a := Attribution{SendPath: sendCost, RecvPath: recvCost}
	if s.Handshake {
		a.Handshake = handshakeRTT
	}
	a.Residual = s.Overhead - a.SendPath - a.RecvPath - a.Handshake
	return a
}

// AttributedSample pairs a sample with its decomposition.
type AttributedSample struct {
	Sample
	Attribution
}

// RunAttributed is Run plus per-sample attribution: it returns the
// experiment and the decomposed samples in the same order.
func RunAttributed(cfg Config) (*Experiment, []AttributedSample, error) {
	var attributed []AttributedSample
	exp, _, err := runOn(context.Background(), nil, cfg, func(tb *testbed.Testbed, res *methods.Result, run []Sample) {
		for i, s := range run {
			attributed = append(attributed, AttributedSample{
				Sample:      s,
				Attribution: Attribute(s, res.SendCosts[i], res.RecvCosts[i], tb.RTTBase()),
			})
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return exp, attributed, nil
}

// JitterImpact compares the jitter a tool would report against the true
// wire jitter, over a K-probe train. Jitter is the mean absolute
// difference of consecutive RTTs (RFC 3393-style IPDV magnitude).
type JitterImpact struct {
	Probes        int
	BrowserJitter float64 // ms
	WireJitter    float64 // ms
}

// Inflation is the jitter the browser side added (ms).
func (j JitterImpact) Inflation() float64 { return j.BrowserJitter - j.WireJitter }

// MeasureJitter runs a probe train and computes both jitters.
func MeasureJitter(cfg Config, probes int) (JitterImpact, error) {
	res, tb, err := measure(nil, cfg, methods.Train(probes))
	if err != nil {
		return JitterImpact{}, err
	}
	return jitterOf(res, tb), nil
}

// measure is the one driver of the impact measurements: it drives shape
// sh of cfg.Method on tb reset to cfg's testbed config, or on a new
// testbed when tb is nil, with the capture cleared first. It returns the
// result, valid until the Runner's next drive, and the testbed, for the
// caller's next measurement.
func measure(tb *testbed.Testbed, cfg Config, sh methods.Shape) (*methods.Result, *testbed.Testbed, error) {
	r, err := newRunner(&cfg, tb)
	if err != nil {
		return nil, tb, err
	}
	r.TB.Cap.Reset()
	res, err := r.Drive(cfg.Method, sh)
	return res, r.TB, err
}

// jitterOf compares a train's browser jitter with the jitter of the
// wire RTTs tb's capture saw.
func jitterOf(res *methods.Result, tb *testbed.Testbed) JitterImpact {
	browserRTTs := stats.DurationsToMs(res.BrowserRTTs())
	pairs := tb.Cap.MatchRTT(res.ServerPort)
	// The probes are the last exchanges; earlier ones belong to the
	// preparation phase (container page or WebSocket upgrade).
	if len(pairs) > len(browserRTTs) {
		pairs = pairs[len(pairs)-len(browserRTTs):]
	}
	wireRTTs := make([]float64, len(pairs))
	for i, p := range pairs {
		wireRTTs[i] = stats.Ms(p.RTT())
	}
	return JitterImpact{
		Probes:        len(res.TBs),
		BrowserJitter: ipdv(browserRTTs),
		WireJitter:    ipdv(wireRTTs),
	}
}

// ipdv returns the mean absolute consecutive difference.
func ipdv(rtts []float64) float64 {
	if len(rtts) < 2 {
		return 0
	}
	var sum float64
	for i := 1; i < len(rtts); i++ {
		d := rtts[i] - rtts[i-1]
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / float64(len(rtts)-1)
}

// ThroughputImpact compares tool-computed and wire-level round-trip
// throughput for a bulk transfer.
type ThroughputImpact struct {
	Bytes        int
	BrowserMbps  float64
	WireMbps     float64
	BrowserRTTms float64
	WireRTTms    float64
}

// Bias is browser/wire throughput (1.0 = unbiased).
func (t ThroughputImpact) Bias() float64 {
	if t.WireMbps == 0 {
		return 0
	}
	return t.BrowserMbps / t.WireMbps
}

// MeasureThroughput runs one bulk transfer and compares both estimates.
func MeasureThroughput(cfg Config, size int) (ThroughputImpact, error) {
	res, tb, err := measure(nil, cfg, methods.Transfer(size))
	if err != nil {
		return ThroughputImpact{}, err
	}
	return throughputOf(res, tb)
}

// throughputOf compares a transfer's browser throughput with the one
// tb's capture saw in the transfer's wire window.
func throughputOf(res *methods.Result, tb *testbed.Testbed) (ThroughputImpact, error) {
	tr, ok := tb.Cap.MatchTransfer(res.ServerPort)
	if !ok {
		return ThroughputImpact{}, fmt.Errorf("core: capture saw no transfer")
	}
	return ThroughputImpact{
		Bytes:        res.Bytes,
		BrowserMbps:  res.BrowserThroughput() / 1e6,
		WireMbps:     tr.BitsPerSecond() / 1e6,
		BrowserRTTms: stats.Ms(res.BrowserRTT(1)),
		WireRTTms:    stats.Ms(tr.Duration()),
	}, nil
}

// LossImpact compares tool-reported and capture-observed loss over a UDP
// probe train (Section 2's claim: overheads inflate delay, not loss).
type LossImpact struct {
	Probes      int
	BrowserLoss float64 // fraction the tool reports
	WireLoss    float64 // fraction the capture observes
	LinkDropped int     // frames the lossy link actually discarded
}

// MeasureLoss runs a UDP train under the configured link loss rate.
func MeasureLoss(cfg Config, probes int) (LossImpact, error) {
	if cfg.Method != methods.JavaUDP {
		return LossImpact{}, fmt.Errorf("core: loss measurement needs the Java UDP method")
	}
	res, tb, err := measure(nil, cfg, methods.Train(probes))
	if err != nil {
		return LossImpact{}, err
	}
	return lossOf(res, tb), nil
}

// lossOf compares a UDP train's tool-reported loss with the loss tb's
// capture observed.
func lossOf(res *methods.Result, tb *testbed.Testbed) LossImpact {
	sent, lost := tb.Cap.CountUnanswered(res.ServerPort)
	li := LossImpact{
		Probes:      len(res.TBs),
		BrowserLoss: res.LossRate(),
		LinkDropped: tb.ServerLink.Dropped,
	}
	if sent > 0 {
		li.WireLoss = float64(lost) / float64(sent)
	}
	return li
}

// AttributionReport renders mean attribution per round for an experiment
// configuration — the Section 4 "detailed investigation" view.
func AttributionReport(cfg Config) (string, error) {
	_, attributed, err := RunAttributed(cfg)
	if err != nil {
		return "", err
	}
	spec := methods.Get(cfg.Method)
	out := fmt.Sprintf("Overhead attribution: %s on %s (%v, %d runs)\n",
		spec.Name, cfg.Profile.Label(), cfg.Timing, cfg.Runs)
	out += fmt.Sprintf("  %-4s %10s %10s %10s %10s %10s\n",
		"Δd", "total", "sendPath", "recvPath", "handshake", "residual")
	for round := 1; round <= methods.Rounds; round++ {
		var tot, snd, rcv, hs, resid []float64
		for _, a := range attributed {
			if a.Round != round {
				continue
			}
			tot = append(tot, stats.Ms(a.Overhead))
			snd = append(snd, stats.Ms(a.SendPath))
			rcv = append(rcv, stats.Ms(a.RecvPath))
			hs = append(hs, stats.Ms(a.Attribution.Handshake))
			resid = append(resid, stats.Ms(a.Residual))
		}
		out += fmt.Sprintf("  Δd%-3d %9.2f %9.2f %9.2f %9.2f %9.2f\n",
			round, stats.Mean(tot), stats.Mean(snd), stats.Mean(rcv), stats.Mean(hs), stats.Mean(resid))
	}
	return out, nil
}
