package core

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/faults"
	"github.com/browsermetric/browsermetric/internal/methods"
	"github.com/browsermetric/browsermetric/internal/obs"
)

// TestFaultDeterminismAcrossWorkers extends the headline equivalence
// guarantee to every fault profile: impairment is seeded per cell from the
// same pure CellSeed schedule, so worker count must not change a byte of
// the exports.
func TestFaultDeterminismAcrossWorkers(t *testing.T) {
	checkNoGoroutineLeak(t)
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, fp := range faults.Profiles() {
		fp := fp
		t.Run(string(fp), func(t *testing.T) {
			base := StudyOptions{Runs: 3, Gap: time.Second, BaseSeed: 42}
			base.Testbed.Faults = fp
			var want []byte
			for _, w := range workerCounts {
				opts := base
				opts.Workers = w
				st, err := RunStudy(opts)
				if err != nil {
					t.Fatalf("Workers=%d: %v", w, err)
				}
				got := exportBytes(t, st)
				if want == nil {
					want = got
					continue
				}
				if !bytes.Equal(got, want) {
					t.Errorf("Workers=%d exports differ from Workers=%d (%d vs %d bytes)",
						w, workerCounts[0], len(got), len(want))
				}
			}
		})
	}
}

// TestCleanProfileBitIdentical is the zero-overhead-when-disabled guard:
// selecting faults.Clean (or leaving Faults zero) must be indistinguishable
// from the pre-faults code path — no impairment layer is installed, no
// extra random draw happens, and the exports match byte for byte.
func TestCleanProfileBitIdentical(t *testing.T) {
	checkNoGoroutineLeak(t)
	run := func(fp faults.Profile) []byte {
		opts := StudyOptions{Runs: 3, Gap: time.Second, BaseSeed: 42, Workers: 2}
		opts.Testbed.Faults = fp
		st, err := RunStudy(opts)
		if err != nil {
			t.Fatalf("Faults=%q: %v", fp, err)
		}
		return exportBytes(t, st)
	}
	zero := run("")
	clean := run(faults.Clean)
	if !bytes.Equal(zero, clean) {
		t.Error("faults.Clean exports differ from zero-value Faults")
	}
}

// TestFaultProfilesActuallyImpair guards against the impairment layer
// silently not being wired: every enabled profile must record judged
// frames, and the lossy profiles must drop some.
func TestFaultProfilesActuallyImpair(t *testing.T) {
	for _, fp := range []faults.Profile{faults.Lossy1pct, faults.BurstyWiFi, faults.Congested} {
		cfg := Config{
			Method:  methods.XHRGet,
			Profile: browser.Lookup(browser.Opera, browser.Windows),
			Runs:    10,
			Gap:     time.Second,
		}
		cfg.Testbed.Faults = fp
		cfg.Testbed.Seed = 7
		cfg.Metrics = obs.NewMetrics()
		exp, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", fp, err)
		}
		if len(exp.Samples) == 0 {
			t.Fatalf("%s: no samples", fp)
		}
		if cfg.Metrics.Counter("fault_frames") == 0 {
			t.Errorf("%s: impairment layer judged no frames — not wired", fp)
		}
		drops := cfg.Metrics.Counter("fault_drops_loss") + cfg.Metrics.Counter("fault_drops_queue")
		if fp != faults.Congested && drops == 0 {
			t.Errorf("%s: lossy profile dropped no frames", fp)
		}
	}
}

// TestFlashPolicyResetSparesLaterRuns: every run's Flash policy
// connection shares the Runner's callbacks. In the sweep's Opera (W)
// Flash TCP cell under burstywifi, a reset reaches an earlier run's
// policy connection while run 100 fetches its own. That connection must
// have dropped the callbacks once its policy arrived, so the cell
// completes instead of failing run 100 with "flash policy fetch refused".
func TestFlashPolicyResetSparesLaterRuns(t *testing.T) {
	opts := StudyOptions{Profiles: browser.Profiles(), Runs: 101, BaseSeed: 1}
	for _, s := range methods.Compared() {
		opts.Methods = append(opts.Methods, s.Kind)
	}
	for _, cfg := range FaultCells(opts, []faults.Profile{faults.BurstyWiFi}) {
		if cfg.Method != methods.FlashTCP || cfg.Profile.Label() != "O (W)" {
			continue
		}
		exp, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(exp.Samples) != 101*methods.Rounds {
			t.Fatalf("samples = %d, want %d", len(exp.Samples), 101*methods.Rounds)
		}
		return
	}
	t.Fatal("no Opera (W) Flash TCP cell")
}
