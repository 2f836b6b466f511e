package core

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/arena"
	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/faults"
	"github.com/browsermetric/browsermetric/internal/methods"
	"github.com/browsermetric/browsermetric/internal/testbed"
)

// arenaEquivCases spans the method families with distinct buffer
// lifetimes (HTTP parse buffers, WebSocket frames, raw-socket echo
// payloads, the Flash policy-file dance) and the fault profiles that
// leave retransmission state alive across the 1 s inter-run gap — the
// exact regime where a premature arena reset would corrupt retransmitted
// bytes.
var arenaEquivCases = []struct {
	kind methods.Kind
	fp   faults.Profile
}{
	{methods.XHRGet, faults.Clean},
	{methods.XHRGet, faults.Congested},
	{methods.WebSocket, faults.Clean},
	{methods.WebSocket, faults.Lossy1pct},
	{methods.FlashGet, faults.BurstyWiFi},
	{methods.JavaTCP, faults.Lossy1pct},
	{methods.JavaUDP, faults.Lossy1pct},
}

// arenaCellConfig is one small cell with the given arena installed.
// Gap is pinned to 1 s — the shortest gap any caller uses — so in-flight
// retransmissions have the least time to drain before the next BeginRun.
func arenaCellConfig(kind methods.Kind, fp faults.Profile, a *arena.Arena) Config {
	cfg := Config{
		Method:  kind,
		Profile: browser.Lookup(browser.Chrome, browser.Windows),
		Timing:  browser.NanoTime,
		Runs:    6,
		Gap:     time.Second,
	}
	cfg.Testbed.Seed = 42
	cfg.Testbed.Faults = fp
	cfg.Testbed.Arena = a
	return cfg
}

// runArenaCell executes the arenaCellConfig cell.
func runArenaCell(t *testing.T, kind methods.Kind, fp faults.Profile, a *arena.Arena) []Sample {
	t.Helper()
	exp, err := Run(arenaCellConfig(kind, fp, a))
	if err != nil {
		t.Fatalf("%v/%v: %v", kind, fp, err)
	}
	return exp.Samples
}

// TestArenaRunEquivalence is the determinism contract of the arena tier:
// the same cell must produce identical samples with no arena (every
// buffer heap-allocated), with a fresh arena, and with one arena reused
// across consecutive cells the way a study worker reuses it. Any
// divergence means a buffer outlived its epoch.
func TestArenaRunEquivalence(t *testing.T) {
	for _, tc := range arenaEquivCases {
		heap := runArenaCell(t, tc.kind, tc.fp, nil)

		fresh := runArenaCell(t, tc.kind, tc.fp, arena.New(0))
		if !reflect.DeepEqual(heap, fresh) {
			t.Errorf("%v/%v: fresh-arena samples diverge from heap samples", tc.kind, tc.fp)
		}

		// Worker-style reuse: one arena, two cells back to back. The
		// second cell starts on recycled slabs whose bytes are the first
		// cell's garbage.
		shared := arena.New(0)
		runArenaCell(t, tc.kind, tc.fp, shared)
		reused := runArenaCell(t, tc.kind, tc.fp, shared)
		if !reflect.DeepEqual(heap, reused) {
			t.Errorf("%v/%v: reused-arena samples diverge from heap samples", tc.kind, tc.fp)
		}
	}
}

// TestArenaPoisonedRunEquivalence re-runs the matrix on a poisoning
// arena, which scribbles 0xA5 over every recycled byte at Reset. A
// use-after-reset read — a parse buffer, a retransmitted payload, a
// frame header held across runs — surfaces as a sample divergence (or a
// hard failure) instead of silently reading stale-but-plausible bytes.
func TestArenaPoisonedRunEquivalence(t *testing.T) {
	for _, tc := range arenaEquivCases {
		heap := runArenaCell(t, tc.kind, tc.fp, nil)

		poisoned := arena.New(0)
		poisoned.SetPoison(true)
		runArenaCell(t, tc.kind, tc.fp, poisoned) // dirty the slabs first
		got := runArenaCell(t, tc.kind, tc.fp, poisoned)
		if !reflect.DeepEqual(heap, got) {
			t.Errorf("%v/%v: poisoned-arena samples diverge — some buffer is read after its epoch ended", tc.kind, tc.fp)
		}
	}
}

// cellOn runs cfg through runOn on tb, or on a new testbed when tb is
// nil, and returns the samples, a fingerprint of every run (the captured
// frames, the virtual time and the layers' counters) and how many runs
// completed.
func cellOn(tb *testbed.Testbed, cfg Config) (samples []Sample, wire []byte, runs int, err error) {
	exp, _, err := runOn(context.Background(), tb, cfg, func(tb *testbed.Testbed, _ *methods.Result, _ []Sample) {
		runs++
		for _, r := range tb.Cap.Records() {
			wire = fmt.Appendf(wire, "%d %d %x\n", r.Time, r.Dir, r.Data)
		}
		wire = fmt.Appendf(wire, "fired %d at %d, dropped %d, segments %d/%d, conns %d/%d, requests %d\n",
			tb.Sim.Fired(), tb.Sim.Now(), tb.ServerLink.Dropped, tb.Client.SegmentsSent, tb.Server.SegmentsSent,
			tb.Client.LiveConns(), tb.Server.LiveConns(), tb.HTTP.Requests)
	})
	if exp != nil {
		samples = exp.Samples
	}
	return samples, wire, runs, err
}

// dirtyCells returns the cells to run on a testbed before a case whose
// fault profile is fp: one that completes, and two that fail partway
// through, on a reset echo connection and on a timed-out UDP round. They
// leave retransmissions, timers, half-open connections, pending events
// and advanced port allocators behind. Each differs from the case in
// fault profile, seed, ServerDelay, LossRate, ServerParseCost and Warp;
// the first two also differ from every case in method.
func dirtyCells(fp faults.Profile) []Config {
	ok := Config{
		Method:  methods.DOM,
		Profile: browser.Lookup(browser.Firefox, browser.Ubuntu),
		Timing:  browser.GetTime,
		Runs:    4,
		Gap:     700 * time.Millisecond,
		Warp:    3 * time.Second,
		Testbed: testbed.Config{
			Seed:            7,
			Faults:          faults.Congested,
			ServerDelay:     20 * time.Millisecond,
			LossRate:        0.05,
			ServerParseCost: 2 * time.Millisecond,
		},
	}
	if fp == faults.Congested {
		ok.Testbed.Faults = faults.BurstyWiFi
	}
	// These loss rates (and the UDP cell's seed) fail each cell after
	// five to seven runs.
	tcp := ok
	tcp.Method = methods.FlashTCP
	tcp.Runs = 8
	tcp.Gap = 500 * time.Millisecond
	tcp.Testbed.Faults, tcp.Testbed.LossRate = faults.BurstyWiFi, 0.4
	if fp == faults.BurstyWiFi {
		tcp.Testbed.Faults, tcp.Testbed.LossRate = faults.Congested, 0.45
	}
	udp := tcp
	udp.Method = methods.JavaUDP
	udp.Testbed.Seed, udp.Testbed.LossRate = 13, 0.75
	return []Config{ok, tcp, udp}
}

// TestTestbedReuseEquivalence is the determinism contract of testbed
// reuse: a cell run on a testbed that other cells used first — two of
// them failing partway through — must give the samples, captured frames
// and event counts of the same cell on a testbed from New. Any divergence
// means Reset left some state behind. The second pass runs with the
// reused testbed's stacks poisoning every connection record they drop
// instead of recycling it, so a pointer to a record kept across a Forget
// or a Reset panics on its next use.
func TestTestbedReuseEquivalence(t *testing.T) {
	for _, poison := range []bool{false, true} {
		for _, tc := range arenaEquivCases {
			name := fmt.Sprintf("%v/%v/poison=%v", tc.kind, tc.fp, poison)
			cfg := arenaCellConfig(tc.kind, tc.fp, nil)
			want, wantWire, _, err := cellOn(nil, cfg)
			if err != nil {
				t.Fatalf("%s: fresh testbed: %v", name, err)
			}

			tb := testbed.New(testbed.Config{})
			tb.Client.SetPoison(poison)
			tb.Server.SetPoison(poison)
			for i, dirty := range dirtyCells(tc.fp) {
				_, _, runs, err := cellOn(tb, dirty)
				if fails := i > 0; (err != nil) != fails || runs == 0 {
					t.Fatalf("%s: prior cell %d (%v): %d runs done, err %v; want a failure partway through: %v",
						name, i, dirty.Method, runs, err, fails)
				}
			}
			got, gotWire, _, err := cellOn(tb, cfg)
			if err != nil {
				t.Fatalf("%s: reused testbed: %v", name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: samples on a reused testbed diverge from a fresh one", name)
			}
			if !bytes.Equal(gotWire, wantWire) {
				t.Errorf("%s: capture or event trace on a reused testbed diverges from a fresh one", name)
			}
		}
	}
}

// TestStudyReusesTestbedsAcrossWorkers runs one study at 1, 2 and 4
// workers, each worker resetting its testbed cell after cell, and
// requires byte-identical CSV exports. make race-reuse runs it under
// -race -count=10: a testbed must never be reached from two workers.
func TestStudyReusesTestbedsAcrossWorkers(t *testing.T) {
	opts := StudyOptions{
		Methods:  []methods.Kind{methods.XHRGet, methods.WebSocket, methods.FlashTCP, methods.JavaUDP},
		Runs:     3,
		BaseSeed: 9,
	}
	opts.Testbed.Faults = faults.Lossy1pct
	var want []byte
	for _, workers := range []int{1, 2, 4} {
		opts.Workers = workers
		st, err := RunStudy(opts)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		var b bytes.Buffer
		if err := st.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = b.Bytes()
			continue
		}
		if !bytes.Equal(b.Bytes(), want) {
			t.Fatalf("%d workers: CSV export differs from the first study's", workers)
		}
	}
}
