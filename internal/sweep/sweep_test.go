package sweep

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/core"
	"github.com/browsermetric/browsermetric/internal/faults"
	"github.com/browsermetric/browsermetric/internal/methods"
)

// sweepExportBytes renders every deterministic byte surface of a sweep:
// the full per-sample CSV and the text report. The cached ≡ recomputed
// contract is asserted over these bytes.
func sweepExportBytes(t testing.TB, r *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(r.Report())
	return buf.Bytes()
}

// windowsProfiles returns the paper's five Windows browsers — the "5
// browsers" axis of the acceptance matrix.
func windowsProfiles(t testing.TB) []*browser.Profile {
	t.Helper()
	var out []*browser.Profile
	for _, n := range []browser.Name{browser.Chrome, browser.Firefox, browser.IE, browser.Opera, browser.Safari} {
		p := browser.Lookup(n, browser.Windows)
		if p == nil {
			t.Fatalf("no profile for %s on Windows", n)
		}
		out = append(out, p)
	}
	return out
}

// smallOpts is a 4 methods × 2 profiles × 2 faults (16-cell) matrix for
// the faster equivalence tests.
func smallOpts(dir string) Options {
	return Options{
		Methods: []methods.Kind{methods.XHRGet, methods.DOM, methods.WebSocket, methods.JavaTCP},
		Profiles: []*browser.Profile{
			browser.Lookup(browser.Chrome, browser.Windows),
			browser.Lookup(browser.Firefox, browser.Ubuntu),
		},
		Faults:   []faults.Profile{faults.Clean, faults.BurstyWiFi},
		Runs:     2,
		Gap:      time.Second,
		BaseSeed: 11,
		Dir:      dir,
	}
}

// TestSweepWarmReplayByteIdenticalAndFast is the PR's acceptance test: a
// 150-cell sweep (10 methods × 5 browsers × 3 fault profiles) replayed
// warm from the cache must be at least 10× faster than the cold run and
// export byte-identically to it.
func TestSweepWarmReplayByteIdenticalAndFast(t *testing.T) {
	opts := Options{
		// Methods defaults to the paper's ten compared methods.
		Profiles: windowsProfiles(t),
		Faults:   []faults.Profile{faults.Clean, faults.Lossy1pct, faults.BurstyWiFi},
		Runs:     10,
		Gap:      time.Second,
		BaseSeed: 42,
		Dir:      t.TempDir(),
	}

	cold, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.Cells != 150 {
		t.Fatalf("matrix has %d cells, want 10 methods × 5 browsers × 3 faults = 150", cold.Stats.Cells)
	}
	if cold.Stats.CachedHits != 0 || cold.Stats.Computed == 0 {
		t.Fatalf("cold run stats %+v: want everything computed, nothing cached", cold.Stats)
	}
	if cold.Stats.Computed+cold.Stats.Skipped != cold.Stats.Cells {
		t.Fatalf("cold run stats %+v: computed+skipped != cells", cold.Stats)
	}
	coldBytes := sweepExportBytes(t, cold)

	warm, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Computed != 0 {
		t.Errorf("warm run recomputed %d cells, want 0", warm.Stats.Computed)
	}
	if warm.Stats.CachedHits != cold.Stats.Computed {
		t.Errorf("warm run replayed %d cells, want %d", warm.Stats.CachedHits, cold.Stats.Computed)
	}
	warmBytes := sweepExportBytes(t, warm)
	if !bytes.Equal(warmBytes, coldBytes) {
		t.Errorf("warm replay is not byte-identical to cold computation (%d vs %d bytes)",
			len(warmBytes), len(coldBytes))
	}
	ratio := float64(cold.Stats.Wall) / float64(warm.Stats.Wall)
	t.Logf("cold %v, warm %v (%.1f×)", cold.Stats.Wall, warm.Stats.Wall, ratio)
	if warm.Stats.Wall*10 > cold.Stats.Wall {
		t.Errorf("warm replay not ≥10× faster: cold %v, warm %v (%.1f×)",
			cold.Stats.Wall, warm.Stats.Wall, ratio)
	}
}

// TestSweepMatchesUncachedStudies: the sweep engine with its cache
// installed produces exactly the studies a plain uncached
// core.RunStudyContext produces — caching must be invisible in the data.
func TestSweepMatchesUncachedStudies(t *testing.T) {
	opts := smallOpts(t.TempDir())
	res, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for si, fp := range res.Faults {
		so := core.StudyOptions{
			Methods:  opts.Methods,
			Profiles: opts.Profiles,
			Runs:     opts.Runs,
			Gap:      opts.Gap,
			BaseSeed: opts.BaseSeed,
		}
		so.Testbed.Faults = fp
		st, err := core.RunStudyContext(context.Background(), so)
		if err != nil {
			t.Fatal(err)
		}
		var want, got bytes.Buffer
		if err := st.WriteCSV(&want); err != nil {
			t.Fatal(err)
		}
		if err := st.SummaryCSV(&want); err != nil {
			t.Fatal(err)
		}
		if err := res.Studies[si].WriteCSV(&got); err != nil {
			t.Fatal(err)
		}
		if err := res.Studies[si].SummaryCSV(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("fault profile %s: sweep study differs from uncached study", fp)
		}
	}
}

// TestSweepOnCellIndexesEachProfilesStudy: the whole sweep runs as one
// cell list, yet OnCell fires exactly once per cell of every fault
// profile's study, skipped cells included, with the profile the cell ran
// under and its index in that profile's study.
func TestSweepOnCellIndexesEachProfilesStudy(t *testing.T) {
	opts := smallOpts(t.TempDir())
	opts.Profiles = append(opts.Profiles, browser.Lookup(browser.IE, browser.Windows)) // no WebSocket
	type key struct {
		fp  faults.Profile
		idx int
	}
	seen := map[key]core.CellStatus{}
	opts.OnCell = func(fp faults.Profile, cs core.CellStatus) {
		if _, dup := seen[key{fp, cs.Index}]; dup {
			t.Errorf("OnCell fired twice for %s cell %d", fp, cs.Index)
		}
		seen[key{fp, cs.Index}] = cs
	}
	res, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != res.Stats.Cells {
		t.Fatalf("OnCell fired for %d cells, sweep has %d", len(seen), res.Stats.Cells)
	}
	skipped := 0
	for si, fp := range res.Faults {
		for i, c := range res.Studies[si].Cells {
			cs, ok := seen[key{fp, i}]
			if !ok {
				t.Fatalf("no OnCell for %s cell %d", fp, i)
			}
			if cs.Method != c.Spec.Kind || cs.Profile != c.Profile || cs.Skipped != c.Skipped || cs.Cached != c.Cached {
				t.Errorf("%s cell %d: OnCell reported %v/%s, study has %v/%s", fp, i,
					cs.Method, cs.Profile.Label(), c.Spec.Kind, c.Profile.Label())
			}
			if c.Skipped {
				skipped++
			}
		}
	}
	if skipped == 0 || skipped != res.Stats.Skipped {
		t.Errorf("skipped cells: %d reported, Stats.Skipped = %d, want equal and > 0", skipped, res.Stats.Skipped)
	}
}

// TestSweepInterruptResumeEquivalence: a sweep cancelled mid-flight and
// then re-run on the same cache dir exports byte-identically to an uninterrupted sweep, at
// every worker count the repo's determinism contract covers.
func TestSweepInterruptResumeEquivalence(t *testing.T) {
	baseline, err := Run(context.Background(), smallOpts(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	want := sweepExportBytes(t, baseline)

	for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		opts := smallOpts(t.TempDir())
		opts.Workers = w

		// Cancel after the third completed cell.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var done atomic.Int32
		opts.OnCell = func(fp faults.Profile, cs core.CellStatus) {
			if done.Add(1) == 3 {
				cancel()
			}
		}
		if _, err := Run(ctx, opts); !errors.Is(err, context.Canceled) {
			t.Fatalf("Workers=%d: interrupted run returned %v, want context.Canceled", w, err)
		}

		// Re-run on the same cache: the finished cells replay, only the
		// missing cells run.
		opts.OnCell = nil
		res, err := Run(context.Background(), opts)
		if err != nil {
			t.Fatalf("Workers=%d: resume: %v", w, err)
		}
		if res.Stats.CachedHits < 3 {
			t.Errorf("Workers=%d: cache held %d cells from before the kill, want ≥ 3", w, res.Stats.CachedHits)
		}
		if res.Stats.Computed+res.Stats.CachedHits+res.Stats.Skipped != res.Stats.Cells {
			t.Errorf("Workers=%d: stats don't add up: %+v", w, res.Stats)
		}
		if got := sweepExportBytes(t, res); !bytes.Equal(got, want) {
			t.Errorf("Workers=%d: resumed sweep is not byte-identical to an uninterrupted one", w)
		}
	}
}

// TestSweepCorruptCellRecovery: flipping a byte in one cached cell file
// must be detected on the next run, logged, recomputed — and the final
// exports must still be byte-identical to the originals.
func TestSweepCorruptCellRecovery(t *testing.T) {
	opts := smallOpts(t.TempDir())
	opts.Workers = 1 // serialize so the log capture needs no locking
	lg := &syncLog{}
	opts.Log = lg.logf

	cold, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	want := sweepExportBytes(t, cold)

	cellsDir := filepath.Join(opts.Dir, "cells")
	names, err := os.ReadDir(cellsDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != cold.Stats.Computed {
		t.Fatalf("%d cell files on disk, want %d", len(names), cold.Stats.Computed)
	}
	victim := filepath.Join(cellsDir, names[0].Name())
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	warm, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Corrupt != 1 {
		t.Errorf("Corrupt = %d, want 1", warm.Stats.Corrupt)
	}
	if warm.Stats.Computed != 1 {
		t.Errorf("Computed = %d, want exactly the corrupted cell recomputed", warm.Stats.Computed)
	}
	if warm.Stats.CachedHits != cold.Stats.Computed-1 {
		t.Errorf("CachedHits = %d, want %d", warm.Stats.CachedHits, cold.Stats.Computed-1)
	}
	if !strings.Contains(lg.String(), "corrupt") {
		t.Errorf("corruption was not logged; log:\n%s", lg.String())
	}
	if got := sweepExportBytes(t, warm); !bytes.Equal(got, want) {
		t.Errorf("recovered sweep is not byte-identical to the original")
	}
}

// TestSweepConfigsShareCacheDir: two differently configured sweeps
// interleaved on one cache dir never see each other's cells (their keys
// differ), each second pass replays entirely from the cache, and every
// pass exports byte-identically to a run in a fresh dir.
func TestSweepConfigsShareCacheDir(t *testing.T) {
	shared := t.TempDir()
	a := smallOpts(shared)
	b := smallOpts(shared)
	b.Runs++
	b.Faults = []faults.Profile{faults.Lossy1pct, faults.Clean}
	for i, opts := range []Options{a, b, a, b} {
		got, err := Run(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if warm := i >= 2; warm != (got.Stats.Computed == 0) {
			t.Errorf("pass %d: stats %+v, want computed only on the first pass", i, got.Stats)
		}
		fresh := opts
		fresh.Dir = t.TempDir()
		want, err := Run(context.Background(), fresh)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sweepExportBytes(t, got), sweepExportBytes(t, want)) {
			t.Errorf("runs=%d faults=%v: shared-dir export differs from a fresh dir", opts.Runs, opts.Faults)
		}
	}
}

func TestSweepRequiresDir(t *testing.T) {
	opts := smallOpts("")
	if _, err := Run(context.Background(), opts); err == nil {
		t.Fatal("Run without Dir succeeded, want error")
	}
}

// failAfter accepts n bytes and then fails every write.
type failAfter struct{ n int }

var errWriteFailed = errors.New("write failed")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		k := f.n
		f.n = 0
		return k, errWriteFailed
	}
	f.n -= len(p)
	return len(p), nil
}

// TestWriteCSVReportsWriteError checks that a writer failing in the
// header or in the rows surfaces its error from Result.WriteCSV.
func TestWriteCSVReportsWriteError(t *testing.T) {
	res, err := Run(context.Background(), smallOpts(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	if err := res.WriteCSV(&full); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 10, full.Len() / 2, full.Len() - 1} {
		if err := res.WriteCSV(&failAfter{n: k}); !errors.Is(err, errWriteFailed) {
			t.Errorf("writer failing after %d of %d bytes: err = %v", k, full.Len(), err)
		}
	}
	if err := res.WriteCSV(&failAfter{n: full.Len()}); err != nil {
		t.Errorf("writer taking exactly %d bytes: err = %v", full.Len(), err)
	}
}
