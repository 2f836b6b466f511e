// Package core implements the paper's primary contribution: the appraisal
// of browser-side delay accuracy. It runs repeated two-round measurements
// (Figure 1) on the testbed, computes the delay overhead of Eq. 1,
//
//	Δd = (tBr − tBs) − (tNr − tNs),
//
// by joining browser-level timestamps with capture-level ground truth, and
// derives the statistics every table and figure of the evaluation reports
// — plus calibration data and the Section 5 recommendations.
package core

import (
	"context"
	"fmt"
	"time"

	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/methods"
	"github.com/browsermetric/browsermetric/internal/obs"
	"github.com/browsermetric/browsermetric/internal/stats"
	"github.com/browsermetric/browsermetric/internal/testbed"
)

// Config describes one experiment: a (method, browser×OS, timing function)
// cell measured Runs times.
type Config struct {
	Method  methods.Kind
	Profile *browser.Profile
	// Timing selects the timestamp API; the paper's default is GetTime.
	Timing browser.TimingFunc
	// Runs is the repetition count (default 50, as in the paper).
	Runs int
	// Gap is the idle time between repetitions (default 10 s). Spreading
	// the runs over virtual minutes is what lets the Windows getTime
	// granularity regimes show up within one experiment.
	Gap time.Duration
	// Warp advances the testbed clock before the first run (e.g. to park
	// inside a particular granularity regime).
	Warp time.Duration
	// Testbed overrides testbed parameters; zero values use the paper's.
	Testbed testbed.Config
	// Tracer and Metrics, when non-nil, are installed on the testbed and
	// receive the full observability stream (spans, counters, stage
	// histograms). Purely observational: results are byte-identical with
	// or without them.
	Tracer  *obs.Tracer
	Metrics *obs.Metrics
}

func (c *Config) fillDefaults() {
	if c.Runs == 0 {
		c.Runs = 50
	}
	if c.Gap == 0 {
		c.Gap = 10 * time.Second
	}
}

// Normalize applies the same defaults RunContext applies before executing
// (Runs, Gap). Cache implementations key and reconstruct configs from the
// normalized form so a zero field and its explicit paper-default value
// name the same cell.
func (c *Config) Normalize() { c.fillDefaults() }

// Sample is one round of one run: the browser-reported RTT, the wire RTT
// from the capture, and their difference (the delay overhead).
type Sample struct {
	Run   int // 0-based repetition index
	Round int // 1 (Δd1) or 2 (Δd2)

	BrowserRTT time.Duration
	WireRTT    time.Duration
	Overhead   time.Duration
	// Handshake reports that a fresh TCP connection was opened for this
	// round's request (Section 4.1's inflation mechanism).
	Handshake bool
}

// Experiment is a completed measurement cell.
//
// The derived statistics (Box, CDF, MeanCI, ...) lazily cache per-round
// sample views on first use; Samples must not be modified after the
// first derived-statistic call.
type Experiment struct {
	Config  Config
	Samples []Sample

	// ovRun caches each round's Δd samples in run order (ms); ovSorted
	// caches the sealed sorted view the order-invariant statistics share.
	ovRun    [methods.Rounds][]float64
	ovSorted [methods.Rounds]*stats.Samples
}

// roundMs returns the cached run-order Δd samples (ms) for round.
// The slice is shared; callers must not mutate it.
func (e *Experiment) roundMs(round int) []float64 {
	cached := round >= 1 && round <= methods.Rounds
	if cached && e.ovRun[round-1] != nil {
		return e.ovRun[round-1]
	}
	out := make([]float64, 0, len(e.Samples)/methods.Rounds+1)
	for _, s := range e.Samples {
		if s.Round == round {
			out = append(out, stats.Ms(s.Overhead))
		}
	}
	if cached {
		e.ovRun[round-1] = out
	}
	return out
}

// roundSamples returns the cached sealed (sorted) Δd set for round.
func (e *Experiment) roundSamples(round int) *stats.Samples {
	cached := round >= 1 && round <= methods.Rounds
	if cached && e.ovSorted[round-1] != nil {
		return e.ovSorted[round-1]
	}
	s := stats.NewSamples(e.roundMs(round))
	if cached {
		e.ovSorted[round-1] = s
	}
	return s
}

// Run executes the experiment on a fresh deterministic testbed.
func Run(cfg Config) (*Experiment, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation: the context is checked between
// repetitions, so an abort takes effect within one run's simulation time.
// A canceled context returns ctx.Err() unwrapped.
func RunContext(ctx context.Context, cfg Config) (*Experiment, error) {
	return runLoop(ctx, cfg, nil)
}

// runLoop is the one repetition loop behind RunContext and
// RunAttributed. After each run it hands onRun (when non-nil) the
// testbed, the run's result and the Rounds samples it appended; the
// result is recycled by the next run, so onRun must not retain it.
func runLoop(ctx context.Context, cfg Config, onRun func(tb *testbed.Testbed, res *methods.Result, run []Sample)) (*Experiment, error) {
	r, err := newRunner(&cfg)
	if err != nil {
		return nil, err
	}
	tb := r.TB
	exp := &Experiment{Config: cfg}
	exp.Samples = make([]Sample, 0, cfg.Runs*methods.Rounds)
	// One Runner serves every repetition: its result storage, client
	// connections and callbacks recycle run over run, and BeginRun
	// recycles the arena-backed buffers below them.
	for run := 0; run < cfg.Runs; run++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r.RunIndex = run
		tb.BeginRun()
		res, err := r.Run(cfg.Method)
		if err != nil {
			return nil, fmt.Errorf("core: run %d: %w", run, err)
		}
		pairs := tb.Cap.MatchRTT(res.ServerPort)
		if len(pairs) < methods.Rounds {
			return nil, fmt.Errorf("core: run %d captured %d wire pairs, want >= %d", run, len(pairs), methods.Rounds)
		}
		// The last Rounds pairs are the probes (earlier ones belong to
		// preparation: container fetch or WebSocket upgrade).
		pairs = pairs[len(pairs)-methods.Rounds:]
		for round := 1; round <= methods.Rounds; round++ {
			wp := pairs[round-1]
			browserRTT := res.BrowserRTT(round)
			exp.Samples = append(exp.Samples, Sample{
				Run:        run,
				Round:      round,
				BrowserRTT: browserRTT,
				WireRTT:    wp.RTT(),
				Overhead:   browserRTT - wp.RTT(),
				// NewConnRounds is authoritative: the capture also sees
				// preparation-phase SYNs (socket methods dial their echo
				// connection just before probe 1), but those handshakes
				// happen outside the timed window.
				Handshake: res.NewConnRounds[round-1],
			})
			cfg.Metrics.ObserveDur("delta_d_ms", browserRTT-wp.RTT())
		}
		if onRun != nil {
			onRun(tb, res, exp.Samples[len(exp.Samples)-methods.Rounds:])
		}
		tb.Advance(cfg.Gap)
	}
	return exp, nil
}

// newRunner is the one testbed set-up of the repetition loop and the
// impact measurements: it fills cfg's defaults, builds its testbed with
// cfg's tracer and metrics installed, applies its warp and returns a
// Runner on that testbed.
func newRunner(cfg *Config) (*methods.Runner, error) {
	cfg.fillDefaults()
	if cfg.Profile == nil {
		return nil, fmt.Errorf("core: Config.Profile is nil")
	}
	tbCfg := cfg.Testbed
	tbCfg.Tracer = cfg.Tracer
	tbCfg.Metrics = cfg.Metrics
	tb := testbed.New(tbCfg)
	// The arena is observational-tier plumbing (a worker-owned buffer
	// pool); the experiment's stored config must not retain it.
	cfg.Testbed.Arena = nil
	if cfg.Warp > 0 {
		tb.Advance(cfg.Warp)
	}
	return &methods.Runner{TB: tb, Profile: cfg.Profile, Timing: cfg.Timing}, nil
}

// Overheads returns the Δd samples of one round in milliseconds, in run
// order. The returned slice is the caller's to keep.
func (e *Experiment) Overheads(round int) []float64 {
	ms := e.roundMs(round)
	if len(ms) == 0 {
		return nil
	}
	out := make([]float64, len(ms))
	copy(out, ms)
	return out
}

// Box returns the Figure 3 box summary of one round's overheads.
func (e *Experiment) Box(round int) stats.Box { return e.roundSamples(round).Box() }

// CDF returns the Figure 4 CDF of one round's overheads.
func (e *Experiment) CDF(round int) *stats.CDF { return e.roundSamples(round).CDF() }

// MeanCI returns the Table 4 mean ± 95% CI of one round's overheads (ms).
// Summation runs over the run-order samples, so results are bit-identical
// with the pre-caching implementation.
func (e *Experiment) MeanCI(round int) (mean, half float64) {
	return stats.MeanCI95(e.roundMs(round))
}

// MedianOverhead returns the median Δd of a round (ms), the Table 3 unit.
func (e *Experiment) MedianOverhead(round int) float64 {
	return e.roundSamples(round).Median()
}

// HandshakeRounds counts per round how many runs opened a fresh TCP
// connection for the probe.
func (e *Experiment) HandshakeRounds() [methods.Rounds]int {
	var out [methods.Rounds]int
	for _, s := range e.Samples {
		if s.Handshake {
			out[s.Round-1]++
		}
	}
	return out
}

// JitterInflation estimates how much the method inflates jitter
// measurements: the standard deviation of the overhead (ms) per round.
// A perfectly stable overhead cancels in jitter computations; a noisy one
// is indistinguishable from network jitter (Section 2.2).
func (e *Experiment) JitterInflation(round int) float64 {
	return stats.StdDev(e.roundMs(round))
}

// ThroughputBias returns the median multiplicative error a round-trip
// throughput estimate suffers when computed from browser RTTs instead of
// wire RTTs: wireRTT/browserRTT (1.0 = unbiased, 0.5 = halved estimate).
func (e *Experiment) ThroughputBias(round int) float64 {
	var ratios []float64
	for _, s := range e.Samples {
		if s.Round == round && s.BrowserRTT > 0 {
			ratios = append(ratios, float64(s.WireRTT)/float64(s.BrowserRTT))
		}
	}
	if len(ratios) == 0 {
		return 1
	}
	return stats.Median(ratios)
}

// Bimodal reports whether a round's overheads split into two levels at
// least 10 ms apart (the Figure 4 granularity signature).
func (e *Experiment) Bimodal(round int) bool {
	s := e.roundSamples(round)
	if s.N() == 0 {
		return false
	}
	return s.Bimodal(3, 10, 0.08)
}
