package browsermetric

import (
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/arena"
	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/methods"
	"github.com/browsermetric/browsermetric/internal/testbed"
)

// warmRunStep builds the steady-state measurement loop the arena tier
// optimizes: one testbed + one Runner serving repetition after
// repetition, exactly as core.RunContext drives them (BeginRun → Run →
// MatchRTT → Advance). After warm-up, every hot-path buffer — event
// queue entries, packet frames, TCP segment scratch, HTTP/WS parse
// buffers, the runner's result and callbacks — recycles through the
// arena or a persistent field. With probes > 0 each repetition is a
// probes-long train instead of a two-round run.
func warmRunStep(t testing.TB, kind methods.Kind, probes int) func() {
	cfg := testbed.Config{Seed: 11}
	cfg.Arena = arena.New(0)
	tb := testbed.New(cfg)
	r := &methods.Runner{TB: tb, Profile: browser.Lookup(browser.Chrome, browser.Ubuntu), Timing: browser.NanoTime}
	return func() {
		tb.BeginRun()
		var res *methods.Result
		var err error
		if probes > 0 {
			res, err = r.Drive(kind, methods.Train(probes))
		} else {
			res, err = r.Run(kind)
		}
		if err != nil {
			t.Fatal(err)
		}
		if pairs := tb.Cap.MatchRTT(res.ServerPort); len(pairs) < len(res.TBs) {
			t.Fatalf("captured %d wire pairs, want >= %d", len(pairs), len(res.TBs))
		}
		tb.Advance(time.Second)
	}
}

// TestWarmRunSteadyStateAllocs is the "allocation war, phase 2" end
// state: once a cell is warm, a full two-round measurement run allocates
// (almost) nothing. The ceilings are measured values plus one object of
// slack — not round numbers — so any new per-run allocation fails the
// guard. WebSocket's ceiling is higher because the method's semantics
// open a fresh TCP connection and WebSocket upgrade every run: the two
// WebSocket conn objects, their receive buffers and the echo callback are
// per-run state (the TCP records recycle, and the upgrade parses reuse
// their client's or service's request and response); the
// connection-reusing methods sit at zero.
func TestWarmRunSteadyStateAllocs(t *testing.T) {
	cases := []struct {
		kind    methods.Kind
		probes  int // 0: a two-round run; otherwise a train this long
		ceiling float64
	}{
		{methods.JavaTCP, 0, 1},   // persistent echo socket: measured 0
		{methods.XHRGet, 0, 1},    // container connection reuse: measured 0
		{methods.FlashGet, 0, 1},  // container connection reuse: measured 0
		{methods.WebSocket, 0, 6}, // fresh dial + upgrade per run: measured 5
		// Trains are drives of the same round machines, so a warm train
		// is held to its method's run ceiling.
		{methods.JavaTCP, 20, 1},
		{methods.XHRGet, 20, 1},
	}
	for _, tc := range cases {
		step := warmRunStep(t, tc.kind, tc.probes)
		for i := 0; i < 5; i++ {
			step() // warm: grow slabs, freelists, parse buffers to steady state
		}
		if allocs := testing.AllocsPerRun(50, step); allocs > tc.ceiling {
			t.Errorf("%v (probes %d): warm run allocated %.2f objects, ceiling %.0f", tc.kind, tc.probes, allocs, tc.ceiling)
		}
	}
}

// BenchmarkSteadyStateRun is the machine-readable form of the same
// contract: the warm-allocs/run metric lands in the BENCH_<pr>.json
// trajectory snapshot, and cmd/benchdiff fails when it regresses by more
// than the allocation gate's threshold. XHR GET is the representative
// workload (container reuse — the paper's most common method family).
func BenchmarkSteadyStateRun(b *testing.B) {
	step := warmRunStep(b, methods.XHRGet, 0)
	for i := 0; i < 5; i++ {
		step()
	}
	warm := testing.AllocsPerRun(100, step)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.ReportMetric(warm, "warm-allocs/run")
}
