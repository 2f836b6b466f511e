package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/browsermetric/browsermetric/internal/core"
	"github.com/browsermetric/browsermetric/internal/faults"
)

// TestCacheConcurrentWritersSameKey is the shared cache dir's contract:
// multiple processes (here goroutines, under -race) racing to Store the
// same cell key while readers Load it concurrently. Because identical cells encode
// identical bytes and writes are temp-then-rename, every Load must
// observe either a miss or the complete cell — never a torn or corrupt
// entry. The corrupt counter staying at zero is the proof.
func TestCacheConcurrentWritersSameKey(t *testing.T) {
	c, err := OpenCache(t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	cfg := cellConfig(42)
	exp, err := core.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	const writers, readers, iters = 2, 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := c.Store(cfg, exp); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				got, ok := c.Load(cfg)
				if !ok {
					continue // a miss before the first rename lands is fine
				}
				if !reflect.DeepEqual(got.Samples, exp.Samples) {
					t.Error("concurrent Load observed wrong samples")
					return
				}
			}
		}()
	}
	wg.Wait()

	s := c.Stats()
	if s.Corrupt != 0 {
		t.Errorf("%d corrupt observations under concurrent same-key writers; rename must be atomic", s.Corrupt)
	}
	// The final state must be one complete, loadable cell.
	if got, ok := c.Load(cfg); !ok || !reflect.DeepEqual(got.Samples, exp.Samples) {
		t.Error("cell not intact after the race")
	}
}

// TestCacheTornFinalFileNeverServed injects the failure temp-then-rename
// exists to prevent: a cell file at the final path holding only a prefix
// of the real encoding (what a crashed direct writer would leave). The
// reader must detect it via the frame's length header, count it corrupt,
// delete it, and report a miss — partial data can never surface as a
// cached cell.
func TestCacheTornFinalFileNeverServed(t *testing.T) {
	c, err := OpenCache(t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	cfg := cellConfig(7)
	exp, err := core.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Store(cfg, exp); err != nil {
		t.Fatal(err)
	}
	hash := c.Key(cfg).Hash()
	path := filepath.Join(c.dir, "cells", hash+".cell")
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Every strict prefix is a possible torn write; probe a spread of
	// them (TestCacheEveryPrefixAndBitFlipDetected tries every one).
	for _, frac := range []int{1, 4, 2} {
		n := len(whole) - len(whole)/frac
		if n <= 0 {
			continue
		}
		if err := os.WriteFile(path, whole[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		before := c.Stats().Corrupt
		if _, ok := c.Load(cfg); ok {
			t.Fatalf("Load served a torn cell (%d of %d bytes)", n, len(whole))
		}
		if c.Stats().Corrupt != before+1 {
			t.Errorf("torn cell (%d bytes) not counted corrupt", n)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("torn cell (%d bytes) not deleted after detection", n)
		}
		// Restore for the next probe.
		if err := os.WriteFile(path, whole, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCacheLeftoverTempFilesHarmless: a SIGKILLed writer leaves
// <hash>.tmp* debris in the cells dir. It must be invisible to Load
// (misses, not corruption) and must not prevent a later Store+Load of
// the same cell.
func TestCacheLeftoverTempFilesHarmless(t *testing.T) {
	c, err := OpenCache(t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	cfg := cellConfig(11)
	hash := c.Key(cfg).Hash()
	debris := filepath.Join(c.dir, "cells", hash+".tmp123456")
	if err := os.WriteFile(debris, []byte("partial garbage from a dead writer"), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := c.Load(cfg); ok {
		t.Fatal("Load served a cell from temp debris")
	}
	if s := c.Stats(); s.Corrupt != 0 || s.Misses != 1 {
		t.Errorf("temp debris miscounted: %+v, want a clean miss", s)
	}

	exp, err := core.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Store(cfg, exp); err != nil {
		t.Fatalf("Store with temp debris present: %v", err)
	}
	if got, ok := c.Load(cfg); !ok || !reflect.DeepEqual(got.Samples, exp.Samples) {
		t.Fatal("cell not loadable past temp debris")
	}
}

// TestCacheConcurrentDistinctKeys: writers on different cells never
// contend (distinct files); all cells land intact.
func TestCacheConcurrentDistinctKeys(t *testing.T) {
	c, err := OpenCache(t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	cfgs := make([]struct {
		cfg core.Config
		exp *core.Experiment
	}, n)
	for i := range cfgs {
		cfgs[i].cfg = cellConfig(int64(100 + i))
		exp, err := core.RunContext(context.Background(), cfgs[i].cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfgs[i].exp = exp
	}
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				if err := c.Store(cfgs[i].cfg, cfgs[i].exp); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i := range cfgs {
		got, ok := c.Load(cfgs[i].cfg)
		if !ok || !reflect.DeepEqual(got.Samples, cfgs[i].exp.Samples) {
			t.Errorf("cell %d not intact", i)
		}
	}
	if s := c.Stats(); s.Corrupt != 0 {
		t.Errorf("corrupt = %d, want 0", s.Corrupt)
	}
	// No temp debris left behind by successful stores.
	entries, err := os.ReadDir(filepath.Join(c.dir, "cells"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("leftover temp file %s after clean stores", e.Name())
		}
	}
}

// TestSweepConcurrentRunsShareCache: three Runs of one sweep share one
// Dir at the same time, as several appraise -sweep processes do, and one
// of them is cancelled after its third cell. Each survivor still exports
// byte-identically to a solo run, and every Run's stats account for
// every cell.
func TestSweepConcurrentRunsShareCache(t *testing.T) {
	solo, err := Run(context.Background(), smallOpts(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	checkStats(t, "solo", solo.Stats)
	var wantCSV bytes.Buffer
	if err := solo.WriteCSV(&wantCSV); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	var (
		wg   sync.WaitGroup
		res  [3]*Result
		errs [3]error
	)
	for i := range res {
		opts := smallOpts(dir)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if i == 0 {
			var done atomic.Int32
			opts.OnCell = func(faults.Profile, core.CellStatus) {
				if done.Add(1) == 3 {
					cancel()
				}
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i], errs[i] = Run(ctx, opts)
		}()
	}
	wg.Wait()

	if !errors.Is(errs[0], context.Canceled) {
		t.Fatalf("cancelled Run returned %v, want context.Canceled", errs[0])
	}
	computed := 0
	for i := 1; i < len(res); i++ {
		if errs[i] != nil {
			t.Fatalf("Run %d: %v", i, errs[i])
		}
		st := res[i].Stats
		checkStats(t, fmt.Sprintf("Run %d", i), st)
		computed += st.Computed
		var csv bytes.Buffer
		if err := res[i].WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(csv.Bytes(), wantCSV.Bytes()) {
			t.Errorf("Run %d: CSV differs from the solo run", i)
		}
		if res[i].Report() != solo.Report() {
			t.Errorf("Run %d: report differs from the solo run", i)
		}
		if st.Corrupt != 0 {
			t.Errorf("Run %d: %d corrupt entries in a shared dir", i, st.Corrupt)
		}
	}
	t.Logf("survivors computed %d cells of %d planned", computed, solo.Stats.Cells-solo.Stats.Skipped)
}

// checkStats requires a Run's stats to account for every cell once.
func checkStats(t *testing.T, who string, st Stats) {
	t.Helper()
	if st.Computed+st.CachedHits+st.Skipped != st.Cells {
		t.Errorf("%s: %d computed + %d cached + %d skipped != %d cells",
			who, st.Computed, st.CachedHits, st.Skipped, st.Cells)
	}
}

// TestCellOrderPermutes: every cellOrder call returns a permutation of
// 0..n-1, and two calls for the same n walk in different orders.
func TestCellOrderPermutes(t *testing.T) {
	for _, tc := range []struct {
		n      int
		differ bool // two orders of n cells may coincide only for tiny n
	}{
		{0, false}, {1, false}, {2, false}, {16, true}, {156, true},
	} {
		a, b := cellOrder(tc.n), cellOrder(tc.n)
		for _, o := range [][]int{a, b} {
			sorted := slices.Clone(o)
			slices.Sort(sorted)
			for i, v := range sorted {
				if v != i {
					t.Fatalf("n=%d: order %v is not a permutation of 0..%d", tc.n, o, tc.n-1)
				}
			}
			if len(o) != tc.n {
				t.Fatalf("n=%d: order has %d entries", tc.n, len(o))
			}
		}
		if tc.differ && slices.Equal(a, b) {
			t.Errorf("n=%d: two calls returned the same order %v", tc.n, a)
		}
	}
}
