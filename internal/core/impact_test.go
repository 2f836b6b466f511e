package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/faults"
	"github.com/browsermetric/browsermetric/internal/methods"
	"github.com/browsermetric/browsermetric/internal/obs"
	"github.com/browsermetric/browsermetric/internal/stats"
	"github.com/browsermetric/browsermetric/internal/testbed"
)

func TestAttributionSumsToOverhead(t *testing.T) {
	cfg := Config{
		Method:  methods.XHRGet,
		Profile: browser.Lookup(browser.Chrome, browser.Ubuntu),
		Timing:  browser.NanoTime,
		Runs:    10,
	}
	exp, attributed, err := RunAttributed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(attributed) != len(exp.Samples) {
		t.Fatalf("attributed %d samples, experiment has %d", len(attributed), len(exp.Samples))
	}
	for i, a := range attributed {
		sum := a.SendPath + a.RecvPath + a.Attribution.Handshake + a.Residual
		if sum != a.Overhead {
			t.Fatalf("sample %d: attribution sums to %v, overhead %v", i, sum, a.Overhead)
		}
	}
}

// TestRunAttributedMatchesRun checks that RunAttributed reports the
// samples Run does: for every compared method on every Table 2 profile,
// under both timing functions and a clock warp, both must produce
// identical samples, so the attribution view never explains numbers the
// experiments did not report.
func TestRunAttributedMatchesRun(t *testing.T) {
	for _, spec := range methods.Compared() {
		for pi, prof := range browser.Profiles() {
			if !prof.Supports(spec.API) {
				continue
			}
			timing := []browser.TimingFunc{browser.GetTime, browser.NanoTime}[pi%2]
			cfg := Config{Method: spec.Kind, Profile: prof, Timing: timing, Runs: 20, Warp: 5 * time.Minute,
				Testbed: testbed.Config{Seed: CellSeed(11, int(spec.Kind), pi)}}
			want, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, attributed, err := RunAttributed(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Samples, want.Samples) || len(attributed) != len(want.Samples) {
				t.Errorf("%s / %s (%v): RunAttributed samples differ from Run's", spec.Name, prof.Label(), timing)
			}
		}
	}
}

func TestAttributionResidualSmallWithNanoTimeReuse(t *testing.T) {
	// With an exact clock and a reused connection, the send/recv costs
	// explain nearly everything: residual is sub-millisecond (stack and
	// wire serialization only).
	cfg := Config{
		Method:  methods.XHRGet,
		Profile: browser.Lookup(browser.Firefox, browser.Windows),
		Timing:  browser.NanoTime,
		Runs:    10,
	}
	_, attributed, err := RunAttributed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range attributed {
		if a.Residual < 0 || a.Residual > time.Millisecond {
			t.Fatalf("residual %v outside [0, 1ms] for reuse+nanoTime", a.Residual)
		}
	}
}

func TestAttributionHandshakeExplainsOperaFlash(t *testing.T) {
	cfg := Config{
		Method:  methods.FlashGet,
		Profile: browser.Lookup(browser.Opera, browser.Windows),
		Timing:  browser.NanoTime,
		Runs:    8,
	}
	_, attributed, err := RunAttributed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range attributed {
		if a.Round == 1 {
			if a.Attribution.Handshake != 50*time.Millisecond {
				t.Fatalf("round 1 handshake attribution = %v, want 50ms", a.Attribution.Handshake)
			}
			if a.Residual < 0 || a.Residual > 3*time.Millisecond {
				t.Fatalf("round 1 residual %v should be small once handshake is attributed", a.Residual)
			}
		} else if a.Attribution.Handshake != 0 {
			t.Fatalf("round 2 handshake attribution = %v, want 0 (GET reuses)", a.Attribution.Handshake)
		}
	}
}

func TestAttributionResidualIsQuantizationError(t *testing.T) {
	// With getTime in the coarse Windows regime, the residual is the
	// clock error: bounded by ± one granule (15.625 ms).
	cfg := Config{
		Method:  methods.JavaTCP,
		Profile: browser.Lookup(browser.Chrome, browser.Windows),
		Timing:  browser.GetTime,
		Runs:    20,
		Warp:    5 * time.Minute,
		Gap:     700 * time.Millisecond,
	}
	_, attributed, err := RunAttributed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sawNegative := false
	for _, a := range attributed {
		if a.Residual < -16*time.Millisecond || a.Residual > 16*time.Millisecond {
			t.Fatalf("residual %v exceeds one granule", a.Residual)
		}
		if a.Residual < -time.Millisecond {
			sawNegative = true
		}
	}
	if !sawNegative {
		t.Fatal("expected some negative residuals (clock under-estimation)")
	}
}

func TestAttributionReportRenders(t *testing.T) {
	report, err := AttributionReport(Config{
		Method:  methods.FlashGet,
		Profile: browser.Lookup(browser.Opera, browser.Ubuntu),
		Timing:  browser.NanoTime,
		Runs:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report, "handshake") || !strings.Contains(report, "Δd1") {
		t.Fatalf("report missing columns:\n%s", report)
	}
}

func TestMeasureJitterSocketVsFlash(t *testing.T) {
	base := Config{
		Profile: browser.Lookup(browser.Firefox, browser.Windows),
		Timing:  browser.NanoTime,
	}
	sockCfg := base
	sockCfg.Method = methods.JavaTCP
	sock, err := MeasureJitter(sockCfg, 20)
	if err != nil {
		t.Fatal(err)
	}
	flashCfg := base
	flashCfg.Method = methods.FlashGet
	flash, err := MeasureJitter(flashCfg, 20)
	if err != nil {
		t.Fatal(err)
	}
	if sock.WireJitter > 0.5 || flash.WireJitter > 0.5 {
		t.Fatalf("wire jitter should be ~0 on the clean testbed: %v / %v", sock.WireJitter, flash.WireJitter)
	}
	if flash.Inflation() <= sock.Inflation() {
		t.Fatalf("flash jitter inflation %.2f should exceed socket %.4f", flash.Inflation(), sock.Inflation())
	}
	if sock.Inflation() > 0.2 {
		t.Fatalf("socket jitter inflation %.3f ms, want near zero", sock.Inflation())
	}
}

func TestMeasureThroughputBias(t *testing.T) {
	cfg := Config{
		Method:  methods.XHRGet,
		Profile: browser.Lookup(browser.IE, browser.Windows), // large XHR overhead
		Timing:  browser.NanoTime,
	}
	ti, err := MeasureThroughput(cfg, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	if ti.Bytes != 256<<10 {
		t.Fatalf("bytes = %d", ti.Bytes)
	}
	if ti.WireMbps <= 0 || ti.BrowserMbps <= 0 {
		t.Fatalf("throughputs = %v / %v", ti.BrowserMbps, ti.WireMbps)
	}
	if ti.Bias() >= 1 {
		t.Fatalf("bias = %.3f, browser estimate must under-report", ti.Bias())
	}
	if ti.Bias() < 0.3 {
		t.Fatalf("bias = %.3f implausibly low for a 256KiB transfer", ti.Bias())
	}
	// The socket path should be much less biased.
	cfg.Method = methods.JavaTCP
	sock, err := MeasureThroughput(cfg, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	if sock.Bias() <= ti.Bias() {
		t.Fatalf("socket bias %.3f should beat XHR bias %.3f", sock.Bias(), ti.Bias())
	}
}

func TestMeasureThroughputWebSocket(t *testing.T) {
	cfg := Config{
		Method:  methods.WebSocket,
		Profile: browser.Lookup(browser.Chrome, browser.Ubuntu),
		Timing:  browser.NanoTime,
	}
	ti, err := MeasureThroughput(cfg, 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	if ti.Bias() < 0.9 || ti.Bias() > 1.0 {
		t.Fatalf("WebSocket throughput bias = %.3f, want ~1", ti.Bias())
	}
}

func TestMeasureLossAgreement(t *testing.T) {
	// Inject 10% frame loss on the server link; the tool-reported and
	// capture-observed loss rates must agree (the paper's point: browser
	// overheads distort delay, not loss).
	cfg := Config{
		Method:  methods.JavaUDP,
		Profile: browser.Lookup(browser.Chrome, browser.Ubuntu),
		Timing:  browser.NanoTime,
		Testbed: testbed.Config{Seed: 77, LossRate: 0.10},
	}
	li, err := MeasureLoss(cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	if li.LinkDropped == 0 {
		t.Fatal("lossy link dropped nothing over 100 probes")
	}
	if li.BrowserLoss == 0 {
		t.Fatal("tool observed no loss despite link drops")
	}
	if math.Abs(li.BrowserLoss-li.WireLoss) > 0.02 {
		t.Fatalf("tool loss %.3f vs wire loss %.3f disagree", li.BrowserLoss, li.WireLoss)
	}
	// Rough calibration: expected end-to-end loss ≈ 1-(0.9)^2 ≈ 0.19
	// (each probe crosses the lossy link twice).
	if li.BrowserLoss < 0.05 || li.BrowserLoss > 0.40 {
		t.Fatalf("loss rate %.3f outside plausible band", li.BrowserLoss)
	}
}

func TestMeasureLossZeroOnCleanLink(t *testing.T) {
	cfg := Config{
		Method:  methods.JavaUDP,
		Profile: browser.Lookup(browser.Chrome, browser.Ubuntu),
		Timing:  browser.NanoTime,
	}
	li, err := MeasureLoss(cfg, 30)
	if err != nil {
		t.Fatal(err)
	}
	if li.BrowserLoss != 0 || li.WireLoss != 0 || li.LinkDropped != 0 {
		t.Fatalf("clean link reported loss: %+v", li)
	}
}

func TestMeasureLossRejectsNonUDP(t *testing.T) {
	cfg := Config{
		Method:  methods.JavaTCP,
		Profile: browser.Lookup(browser.Chrome, browser.Ubuntu),
	}
	if _, err := MeasureLoss(cfg, 10); err == nil {
		t.Fatal("expected error for TCP loss measurement")
	}
}

func TestTrainRTTsReasonable(t *testing.T) {
	tb := testbed.New(testbed.Config{Seed: 9})
	r := &methods.Runner{TB: tb, Profile: browser.Lookup(browser.Chrome, browser.Ubuntu), Timing: browser.NanoTime}
	train, err := r.Drive(methods.WebSocket, methods.Train(15))
	if err != nil {
		t.Fatal(err)
	}
	rtts := train.BrowserRTTs()
	if len(rtts) != 15 {
		t.Fatalf("answered probes = %d, want 15", len(rtts))
	}
	for i, rtt := range rtts {
		if rtt < 50*time.Millisecond || rtt > 60*time.Millisecond {
			t.Fatalf("probe %d RTT = %v", i, rtt)
		}
	}
	if train.LossRate() != 0 {
		t.Fatalf("loss rate = %v on clean link", train.LossRate())
	}
}

func TestTrainHTTPSequential(t *testing.T) {
	tb := testbed.New(testbed.Config{Seed: 10})
	r := &methods.Runner{TB: tb, Profile: browser.Lookup(browser.Firefox, browser.Ubuntu), Timing: browser.NanoTime}
	train, err := r.Drive(methods.XHRGet, methods.Train(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(train.BrowserRTTs()) != 8 {
		t.Fatalf("probes = %d", len(train.BrowserRTTs()))
	}
	// Probes are sequential: timestamps strictly increase.
	for i := 1; i < len(train.TBs); i++ {
		if train.TBs[i] <= train.TBs[i-1] {
			t.Fatalf("train timestamps not increasing at %d", i)
		}
	}
}

func TestKSDistinguishesTimingAPIs(t *testing.T) {
	// Quantitative version of the Figure 4 claim: on Windows, the Δd
	// distributions under getTime and nanoTime differ significantly;
	// on Ubuntu (steady 1 ms granularity on a multi-ms overhead) the two
	// XHR distributions are statistically indistinguishable.
	winGet := quickExp(t, methods.JavaTCP, browser.Chrome, browser.Windows, browser.GetTime, 40)
	winNano := quickExp(t, methods.JavaTCP, browser.Chrome, browser.Windows, browser.NanoTime, 40)
	if !stats.KSDifferent(winGet.Overheads(1), winNano.Overheads(1)) {
		t.Error("Windows getTime vs nanoTime distributions should differ")
	}

	// Control: split one experiment's Δd2 samples into even and odd runs —
	// the same distribution by construction — and expect no KS flag.
	exp, err := Run(Config{Method: methods.XHRGet, Profile: browser.Lookup(browser.Chrome, browser.Ubuntu),
		Timing: browser.NanoTime, Runs: 80, Testbed: testbed.Config{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var even, odd []float64
	for _, s := range exp.Samples {
		if s.Round != 2 {
			continue
		}
		v := float64(s.Overhead) / 1e6
		if s.Run%2 == 0 {
			even = append(even, v)
		} else {
			odd = append(odd, v)
		}
	}
	if stats.KSDifferent(even, odd) {
		t.Error("two halves of the same cell flagged as different distributions")
	}
}

// TestMeasureHonoursObservability: the impact measurements install
// cfg.Tracer and cfg.Metrics on their testbed, as Run does, so the
// stack's connect spans and frame counters reach them.
func TestMeasureHonoursObservability(t *testing.T) {
	prof := browser.Lookup(browser.Chrome, browser.Ubuntu)
	measure := map[string]func(cfg Config) error{
		"jitter": func(cfg Config) error {
			cfg.Method = methods.JavaTCP
			_, err := MeasureJitter(cfg, 5)
			return err
		},
		"throughput": func(cfg Config) error {
			cfg.Method = methods.XHRGet
			_, err := MeasureThroughput(cfg, 16<<10)
			return err
		},
		"loss": func(cfg Config) error {
			cfg.Method = methods.JavaUDP
			_, err := MeasureLoss(cfg, 5)
			return err
		},
	}
	for name, m := range measure {
		cfg := Config{Profile: prof, Tracer: obs.NewTracer(), Metrics: obs.NewMetrics()}
		if err := m(cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cfg.Metrics.Counter("wire_frames") == 0 {
			t.Errorf("%s: metrics saw no wire frames", name)
		}
		if name != "loss" && len(cfg.Tracer.Find("connect")) == 0 {
			t.Errorf("%s: tracer saw no connect span", name)
		}
	}
}

// TestImpactMeasurementsOnReusedTestbed runs ImpactReport's measurements
// in its order on one testbed that other cells used first, two of them
// failing partway through, and requires each result, captured frame and
// event count to equal the same measurement's on a testbed from New. The
// second pass poisons every connection record the reused testbed's
// stacks drop.
func TestImpactMeasurementsOnReusedTestbed(t *testing.T) {
	prof := browser.Lookup(browser.Firefox, browser.Windows)
	cfg := func(kind methods.Kind) Config {
		return Config{Method: kind, Profile: prof, Timing: browser.NanoTime}
	}
	type measureFn func(tb *testbed.Testbed) (any, *testbed.Testbed, error)
	var measures []measureFn
	for _, kind := range []methods.Kind{methods.XHRGet, methods.FlashGet, methods.WebSocket, methods.JavaTCP} {
		measures = append(measures, func(tb *testbed.Testbed) (any, *testbed.Testbed, error) {
			res, tb, err := measure(tb, cfg(kind), methods.Train(20))
			if err != nil {
				return nil, tb, err
			}
			return jitterOf(res, tb), tb, nil
		})
	}
	for _, kind := range []methods.Kind{methods.XHRGet, methods.WebSocket, methods.JavaTCP} {
		measures = append(measures, func(tb *testbed.Testbed) (any, *testbed.Testbed, error) {
			res, tb, err := measure(tb, cfg(kind), methods.Transfer(256<<10))
			if err != nil {
				return nil, tb, err
			}
			ti, err := throughputOf(res, tb)
			return ti, tb, err
		})
	}
	measures = append(measures, func(tb *testbed.Testbed) (any, *testbed.Testbed, error) {
		loss := cfg(methods.JavaUDP)
		loss.Testbed = testbed.Config{Seed: 4242, LossRate: 0.10}
		res, tb, err := measure(tb, loss, methods.Train(100))
		if err != nil {
			return nil, tb, err
		}
		return lossOf(res, tb), tb, nil
	})
	wire := func(tb *testbed.Testbed) []byte {
		var w []byte
		for _, r := range tb.Cap.Records() {
			w = fmt.Appendf(w, "%d %d %x\n", r.Time, r.Dir, r.Data)
		}
		return fmt.Appendf(w, "fired %d at %d, dropped %d\n", tb.Sim.Fired(), tb.Sim.Now(), tb.ServerLink.Dropped)
	}
	for _, poison := range []bool{false, true} {
		tb := testbed.New(testbed.Config{})
		tb.Client.SetPoison(poison)
		tb.Server.SetPoison(poison)
		for _, dirty := range dirtyCells(faults.Lossy1pct) {
			cellOn(tb, dirty) // the second and third cells fail by design
		}
		for i, m := range measures {
			want, fresh, err := m(nil)
			if err != nil {
				t.Fatalf("measurement %d on a fresh testbed: %v", i, err)
			}
			got, reused, err := m(tb)
			if err != nil {
				t.Fatalf("poison=%v: measurement %d on a reused testbed: %v", poison, i, err)
			}
			if got != want {
				t.Errorf("poison=%v: measurement %d on a reused testbed: %+v, fresh: %+v", poison, i, got, want)
			}
			if !bytes.Equal(wire(reused), wire(fresh)) {
				t.Errorf("poison=%v: measurement %d: capture or event count on a reused testbed diverges from a fresh one", poison, i)
			}
			tb = reused
		}
	}
}
