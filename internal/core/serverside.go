package core

import (
	"fmt"
	"strings"
	"time"

	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/methods"
	"github.com/browsermetric/browsermetric/internal/stats"
)

// ServerOverhead is the paper's named extension (Section 7): the delay
// the *server side* adds to a measured RTT. In the Eq. 1 framing the
// server's processing time is invisible to the client-side Δd — it sits
// inside the wire RTT — so a browser tool over-reports the *network* RTT
// by exactly the server's processing time even when its own overhead is
// calibrated away.
type ServerOverhead struct {
	ParseCost time.Duration
	// WireRTT is the median wire RTT observed at the client capture.
	WireRTT time.Duration
	// PathRTT is the pure path RTT (testbed delay, no processing).
	PathRTT time.Duration
	// ClientOverhead is the client-side Δd2 median for reference.
	ClientOverhead float64 // ms
}

// ServerShare is the portion of the wire RTT the server processing
// contributes.
func (s ServerOverhead) ServerShare() time.Duration { return s.WireRTT - s.PathRTT }

// MeasureServerOverhead sweeps server processing cost and shows where it
// lands: the wire RTT absorbs it one-for-one while the client-side Δd
// stays put. cfg.Method must be an HTTP method (the server cost applies
// to HTTP request handling).
func MeasureServerOverhead(cfg Config, parseCosts []time.Duration) ([]ServerOverhead, error) {
	cfg.fillDefaults()
	if cfg.Profile == nil {
		return nil, fmt.Errorf("core: Config.Profile is nil")
	}
	if methods.Get(cfg.Method).Transport != methods.TransportHTTP {
		return nil, fmt.Errorf("core: server overhead sweep needs an HTTP method")
	}
	if len(parseCosts) == 0 {
		parseCosts = []time.Duration{0, 2 * time.Millisecond, 5 * time.Millisecond, 10 * time.Millisecond}
	}
	cfgs := make([]Config, len(parseCosts))
	for i, pc := range parseCosts {
		cfgs[i] = cfg
		cfgs[i].Testbed.ServerParseCost = pc
		cfgs[i].Testbed.Seed = cfg.Testbed.Seed + int64(i) + 1
	}
	exps, err := runArtifact(cfgs)
	if err != nil {
		return nil, err
	}
	out := make([]ServerOverhead, 0, len(parseCosts))
	for i, exp := range exps {
		var wires []float64
		for _, s := range exp.Samples {
			if s.Round == 2 {
				wires = append(wires, stats.Ms(s.WireRTT))
			}
		}
		out = append(out, ServerOverhead{
			ParseCost:      parseCosts[i],
			WireRTT:        time.Duration(stats.Median(wires) * float64(time.Millisecond)),
			PathRTT:        50 * time.Millisecond,
			ClientOverhead: exp.MedianOverhead(2),
		})
	}
	return out, nil
}

// ServerOverheadReport renders the sweep.
func ServerOverheadReport(prof *browser.Profile, timing browser.TimingFunc, runs int) (string, error) {
	cfg := Config{Method: methods.XHRGet, Profile: prof, Timing: timing, Runs: runs}
	rows, err := MeasureServerOverhead(cfg, nil)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Server-side overhead sweep (XHR GET on %s, %d runs/point)\n", prof.Label(), runs)
	fmt.Fprintf(&b, "  %-12s %12s %14s %16s\n", "parse cost", "wire RTT", "server share", "client Δd2 (ms)")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-12v %12v %14v %16.2f\n", r.ParseCost, r.WireRTT.Round(10*time.Microsecond),
			r.ServerShare().Round(10*time.Microsecond), r.ClientOverhead)
	}
	b.WriteString("  -> server processing inflates the wire RTT one-for-one; the client-side Δd is unchanged.\n")
	b.WriteString("     Client-side calibration cannot remove it: measuring it needs a server-side tap.\n")
	return b.String(), nil
}
