package sweep

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/core"
	"github.com/browsermetric/browsermetric/internal/faults"
	"github.com/browsermetric/browsermetric/internal/frame"
	"github.com/browsermetric/browsermetric/internal/methods"
	"github.com/browsermetric/browsermetric/internal/obs"
	"github.com/browsermetric/browsermetric/internal/testbed"
)

func cellConfig(seed int64) core.Config {
	return core.Config{
		Method:  methods.XHRGet,
		Profile: browser.Lookup(browser.Chrome, browser.Windows),
		Runs:    2,
		Gap:     time.Second,
		Testbed: testbed.Config{Seed: seed},
	}
}

// syncLog collects log lines; Cache may log from concurrent workers.
type syncLog struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *syncLog) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(&l.b, format+"\n", args...)
}

func (l *syncLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func TestCacheStoreLoadRoundTrip(t *testing.T) {
	c, err := OpenCache(t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	cfg := cellConfig(42)
	exp, err := core.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Store(cfg, exp); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Load(cfg)
	if !ok {
		t.Fatal("Load after Store missed")
	}
	if !reflect.DeepEqual(got.Samples, exp.Samples) {
		t.Errorf("replayed samples differ from stored samples")
	}
	// The replayed config is the normalized one RunContext would have used.
	if got.Config.Runs != 2 || got.Config.Gap != time.Second {
		t.Errorf("replayed config not normalized: Runs=%d Gap=%v", got.Config.Runs, got.Config.Gap)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 0 || s.Corrupt != 0 || s.Stores != 1 {
		t.Errorf("stats = %+v, want 1 hit, 0 misses, 0 corrupt, 1 store", s)
	}
}

func TestCacheMissOnAbsentEntry(t *testing.T) {
	c, err := OpenCache(t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Load(cellConfig(7)); ok {
		t.Fatal("Load on empty cache hit")
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != 0 {
		t.Errorf("stats = %+v, want 1 miss", s)
	}
}

// TestCacheCorruptionDetected is the byte-flip robustness test: a single
// flipped bit anywhere in a cached cell file must be detected by the
// frame checksum, logged, counted, and reported as a miss (so the
// scheduler recomputes), and the poisoned file must be removed.
func TestCacheCorruptionDetected(t *testing.T) {
	cfg := cellConfig(42)
	exp, err := core.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Flip a byte at several structurally distinct offsets: inside the
	// samples, inside the stored key (after the frame header and the
	// key's one-byte length), and inside the checksum itself.
	for _, pick := range []struct {
		name string
		at   func(n int) int
	}{
		{"mid-file", func(n int) int { return n / 2 }},
		{"key-line", func(n int) int { return frame.HeaderLen + 1 + 8 }},
		{"checksum", func(n int) int { return n - 2 }},
	} {
		t.Run(pick.name, func(t *testing.T) {
			c, err := OpenCache(t.TempDir(), "")
			if err != nil {
				t.Fatal(err)
			}
			lg := &syncLog{}
			c.SetLog(lg.logf)
			if err := c.Store(cfg, exp); err != nil {
				t.Fatal(err)
			}
			path := c.cellPath(c.Key(cfg).Hash())
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			i := pick.at(len(data))
			data[i] ^= 0x01
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}

			if _, ok := c.Load(cfg); ok {
				t.Fatal("Load served a corrupt entry as a hit")
			}
			if s := c.Stats(); s.Corrupt != 1 || s.Misses != 1 {
				t.Errorf("stats = %+v, want corrupt=1 miss=1", s)
			}
			if log := lg.String(); log == "" {
				t.Errorf("corruption was not logged")
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("corrupt entry was not removed (stat err = %v)", err)
			}

			// Recompute-and-restore yields a working entry again.
			if err := c.Store(cfg, exp); err != nil {
				t.Fatal(err)
			}
			got, ok := c.Load(cfg)
			if !ok || !reflect.DeepEqual(got.Samples, exp.Samples) {
				t.Fatal("cache did not recover after recompute + store")
			}
		})
	}
}

// TestCacheTruncationDetected: a torn write (file cut mid-entry) is
// detected the same way a flip is.
func TestCacheTruncationDetected(t *testing.T) {
	c, err := OpenCache(t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	cfg := cellConfig(42)
	exp, err := core.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Store(cfg, exp); err != nil {
		t.Fatal(err)
	}
	path := c.cellPath(c.Key(cfg).Hash())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Load(cfg); ok {
		t.Fatal("Load served a truncated entry as a hit")
	}
	if s := c.Stats(); s.Corrupt != 1 {
		t.Errorf("stats = %+v, want corrupt=1", s)
	}
}

// TestCacheEveryPrefixAndBitFlipDetected: for a small stored cell, every
// strict prefix of its file and every single-bit flip of it is a counted
// miss — Corrupt +1, the file deleted, the entry never served. The
// frame's CRC-32C catches every single-bit error and the length header
// every truncation, so no mutation may slip through.
func TestCacheEveryPrefixAndBitFlipDetected(t *testing.T) {
	c, err := OpenCache(t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	cfg := cellConfig(42)
	exp, err := core.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Store(cfg, exp); err != nil {
		t.Fatal(err)
	}
	path := c.cellPath(c.Key(cfg).Hash())
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, data []byte) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		before := c.Stats()
		if _, ok := c.Load(cfg); ok {
			t.Fatalf("%s: served as a hit", what)
		}
		if after := c.Stats(); after.Corrupt != before.Corrupt+1 || after.Misses != before.Misses+1 || after.Hits != before.Hits {
			t.Fatalf("%s: stats %+v -> %+v, want one more corrupt miss", what, before, after)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%s: corrupt entry not removed (stat err = %v)", what, err)
		}
	}
	for n := 0; n < len(orig); n++ {
		check(fmt.Sprintf("prefix %d of %d", n, len(orig)), orig[:n])
	}
	for bit := 0; bit < 8*len(orig); bit++ {
		data := append([]byte(nil), orig...)
		data[bit/8] ^= 1 << (bit % 8)
		check(fmt.Sprintf("bit %d flipped", bit), data)
	}
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Load(cfg); !ok || !reflect.DeepEqual(got.Samples, exp.Samples) {
		t.Fatal("the unmodified file no longer loads")
	}
}

// TestCacheKeyMismatchRejected: a well-formed cell file sitting at the
// wrong address (e.g. a botched manual copy) is rejected — the stored key
// must match the address it was loaded from.
func TestCacheKeyMismatchRejected(t *testing.T) {
	c, err := OpenCache(t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	cfgA, cfgB := cellConfig(1), cellConfig(2)
	exp, err := core.RunContext(context.Background(), cfgA)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Store(cfgA, exp); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(c.cellPath(c.Key(cfgA).Hash()))
	if err != nil {
		t.Fatal(err)
	}
	// Plant A's (internally consistent) file at B's address.
	if err := os.WriteFile(c.cellPath(c.Key(cfgB).Hash()), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Load(cfgB); ok {
		t.Fatal("Load served a mis-addressed entry")
	}
	if s := c.Stats(); s.Corrupt != 1 {
		t.Errorf("stats = %+v, want corrupt=1", s)
	}
}

func TestOpenCacheRequiresDir(t *testing.T) {
	if _, err := OpenCache("", ""); err == nil {
		t.Fatal("OpenCache(\"\") succeeded, want error")
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c, err := OpenCache(t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	cfg := cellConfig(42)
	exp, err := core.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := c.Store(cfg, exp); err != nil {
					t.Error(err)
					return
				}
				if got, ok := c.Load(cfg); ok && !reflect.DeepEqual(got.Samples, exp.Samples) {
					t.Error("concurrent Load returned wrong samples")
					return
				}
			}
		}()
	}
	wg.Wait()
	if _, err := os.Stat(filepath.Join(c.dir, "cells")); err != nil {
		t.Fatal(err)
	}
}

// TestCacheMetricsExported pins the sweep_cache_* observability export:
// hits, misses, corruption and stores all surface as registry counters
// with HELP text, and a nil registry costs nothing.
func TestCacheMetricsExported(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	c.SetMetrics(m)

	cfg := cellConfig(1)
	if _, ok := c.Load(cfg); ok {
		t.Fatal("unexpected hit on empty cache")
	}
	exp, err := core.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Store(cfg, exp); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Load(cfg); !ok {
		t.Fatal("miss after store")
	}
	// Corrupt the entry: the next load counts corrupt + miss.
	path := c.cellPath(c.Key(cfg).Hash())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Load(cfg); ok {
		t.Fatal("corrupt entry served")
	}

	want := map[string]int64{
		"sweep_cache_hits_total":    1,
		"sweep_cache_misses_total":  2,
		"sweep_cache_corrupt_total": 1,
		"sweep_cache_stores_total":  1,
	}
	for name, v := range want {
		if got := m.Counter(name); got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
	if missing := m.FamiliesMissingHelp(); len(missing) != 0 {
		t.Fatalf("sweep cache families missing HELP text: %v", missing)
	}
	// The registry counters agree with the in-process Stats snapshot.
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Corrupt != 1 || st.Stores != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSweepRunExportsCacheMetrics wires Options.Metrics end to end: a
// cold run stores every cell, a warm rerun replays them, and both show
// up on the same registry.
func TestSweepRunExportsCacheMetrics(t *testing.T) {
	dir := t.TempDir()
	m := obs.NewMetrics()
	opts := Options{
		Methods:  []methods.Kind{methods.XHRGet},
		Profiles: []*browser.Profile{browser.Lookup(browser.Chrome, browser.Windows)},
		Faults:   []faults.Profile{faults.Clean},
		Runs:     2,
		Gap:      time.Second,
		Dir:      dir,
		Metrics:  m,
	}
	if _, err := Run(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	if got := m.Counter("sweep_cache_stores_total"); got != 1 {
		t.Fatalf("cold stores = %d, want 1", got)
	}
	if got := m.Counter("sweep_cache_hits_total"); got != 0 {
		t.Fatalf("cold hits = %d, want 0", got)
	}
	if _, err := Run(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	if got := m.Counter("sweep_cache_hits_total"); got != 1 {
		t.Fatalf("warm hits = %d, want 1", got)
	}
	if got := m.Counter("sweep_cache_misses_total"); got != 1 {
		t.Fatalf("misses = %d, want 1 (cold lookup only)", got)
	}
}

// storedCell opens a cache in a fresh directory and stores one computed
// XHR GET cell of the given runs and seed in it.
func storedCell(tb testing.TB, runs int, seed int64) (*Cache, core.Config) {
	tb.Helper()
	c, err := OpenCache(tb.TempDir(), "")
	if err != nil {
		tb.Fatal(err)
	}
	cfg := cellConfig(seed)
	cfg.Runs = runs
	exp, err := core.RunContext(context.Background(), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := c.Store(cfg, exp); err != nil {
		tb.Fatal(err)
	}
	return c, cfg
}

// TestCacheLoadHitAllocs guards the warm hit path: one path string, the
// open file, the decoded key and samples, and the experiment. The file
// is read into a pooled buffer, so its size does not add an object
// (measured 7, with 1 of slack, as warm_alloc_test.go sets its
// ceilings).
func TestCacheLoadHitAllocs(t *testing.T) {
	c, cfg := storedCell(t, 50, 42)
	load := func() {
		if _, ok := c.Load(cfg); !ok {
			t.Fatal("Load of a stored cell missed")
		}
	}
	for i := 0; i < 5; i++ {
		load()
	}
	if allocs := testing.AllocsPerRun(100, load); allocs > 8 {
		t.Errorf("a warm Load hit allocated %.0f objects, ceiling 8", allocs)
	}
}

// TestCacheLoadSamplesNotAliased: the samples a hit returns belong to the
// caller. Loading other cells afterwards, one after another and from
// concurrent goroutines, reuses the read buffers, and must leave every
// earlier result equal to a private decode of its file.
func TestCacheLoadSamplesNotAliased(t *testing.T) {
	c, err := OpenCache(t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	// Cells of different seeds, largest first, so each later read would
	// overwrite any storage the first result shared with it.
	var cfgs []core.Config
	var want [][]core.Sample
	for i := 0; i < 4; i++ {
		cfg := cellConfig(int64(10 + i))
		cfg.Runs = 11 - 3*i
		exp, err := core.RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Store(cfg, exp); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(c.cellPath(c.Key(cfg).Hash()))
		if err != nil {
			t.Fatal(err)
		}
		_, samples, err := decodeCell(data)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
		want = append(want, append([]core.Sample(nil), samples...))
	}
	load := func(i int) *core.Experiment {
		exp, ok := c.Load(cfgs[i])
		if !ok {
			t.Errorf("Load of stored cell %d missed", i)
		}
		return exp
	}

	a := load(0)
	for i := 1; i < len(cfgs); i++ {
		load(i)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < 25; n++ {
				i := (w + n) % len(cfgs)
				if exp := load(i); exp != nil && !reflect.DeepEqual(exp.Samples, want[i]) {
					t.Errorf("concurrent Load of cell %d returned samples that differ from its file", i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if a == nil || !reflect.DeepEqual(a.Samples, want[0]) {
		t.Fatal("the first cell's samples changed after later Loads")
	}
}

// TestCacheShortStoredKeyRejected: a well-formed cell file whose stored
// key is shorter than an address (any key up to 64 bytes decodes) is a
// key mismatch like any other: counted, removed, never a panic.
func TestCacheShortStoredKeyRejected(t *testing.T) {
	c, err := OpenCache(t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	cfg := cellConfig(1)
	data, err := encodeCell("abc", []core.Sample{{Run: 0, Round: 1}})
	if err != nil {
		t.Fatal(err)
	}
	path := c.cellPath(c.Key(cfg).Hash())
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Load(cfg); ok {
		t.Fatal("Load served an entry stored under another key")
	}
	if s := c.Stats(); s.Corrupt != 1 {
		t.Errorf("stats = %+v, want corrupt=1", s)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("mismatched entry was not removed (stat err = %v)", err)
	}
}
