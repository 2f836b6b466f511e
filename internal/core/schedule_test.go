package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/methods"
)

// checkNoGoroutineLeak fails the test if goroutines outlive it.
func checkNoGoroutineLeak(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d before, %d after\n%s",
					before, runtime.NumGoroutine(), buf[:n])
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// exportBytes renders every study export whose bytes the determinism
// guarantee covers: the full sample CSV and the Markdown report.
func exportBytes(t *testing.T, st *Study) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(MarkdownReport(st))
	return buf.Bytes()
}

// TestRunStudyDeterminismAcrossWorkers is the headline equivalence test:
// the same StudyOptions executed sequentially, on a small pool, and on a
// GOMAXPROCS-wide pool must export byte-identical CSVs and reports,
// proving the parallel scheduler does not perturb the measurements.
func TestRunStudyDeterminismAcrossWorkers(t *testing.T) {
	checkNoGoroutineLeak(t)
	base := StudyOptions{Runs: 3, Gap: time.Second, BaseSeed: 42}

	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
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
}

// TestRunStudyStatsAndCallback checks the scheduler's observability
// surface: counters add up and OnCellDone fires exactly once per cell
// with monotonically complete Done/Total counters.
func TestRunStudyStatsAndCallback(t *testing.T) {
	checkNoGoroutineLeak(t)
	seen := map[int]int{}
	var violations []string
	maxDone := 0
	opts := StudyOptions{
		Runs: 1, Gap: time.Second, Workers: 3,
		OnCellDone: func(cs CellStatus) {
			seen[cs.Index]++
			// Serialized callbacks must report Done = 1..Total in order.
			if cs.Done != maxDone+1 || cs.Done > cs.Total {
				violations = append(violations,
					fmt.Sprintf("Done=%d after %d (Total=%d)", cs.Done, maxDone, cs.Total))
			}
			maxDone = cs.Done
			if cs.Err != nil {
				violations = append(violations, fmt.Sprintf("cell %d: unexpected Err %v", cs.Index, cs.Err))
			}
		},
	}
	st, err := RunStudy(opts)
	if err != nil {
		t.Fatal(err)
	}
	total := len(st.Options.Methods) * len(st.Options.Profiles)
	if got := len(st.Cells); got != total {
		t.Fatalf("got %d cells, want %d", got, total)
	}
	for _, v := range violations {
		t.Errorf("OnCellDone: %s", v)
	}
	if len(seen) != total {
		t.Errorf("OnCellDone fired for %d distinct cells, want %d", len(seen), total)
	}
	for idx, n := range seen {
		if n != 1 {
			t.Errorf("cell %d: OnCellDone fired %d times", idx, n)
		}
	}
	if maxDone != total {
		t.Errorf("last Done = %d, want %d", maxDone, total)
	}

	s := st.Stats
	if s.Workers != 3 {
		t.Errorf("Stats.Workers = %d, want 3", s.Workers)
	}
	if s.CellsStarted != total || s.CellsFinished != total {
		t.Errorf("started/finished = %d/%d, want %d/%d", s.CellsStarted, s.CellsFinished, total, total)
	}
	if s.CellsFailed != 0 {
		t.Errorf("CellsFailed = %d, want 0", s.CellsFailed)
	}
	// The default matrix skips WebSocket on the two non-WebSocket
	// browsers (IE 9 and Safari 5 on Windows).
	if s.CellsSkipped != 2 {
		t.Errorf("CellsSkipped = %d, want 2", s.CellsSkipped)
	}
	if len(s.CellWall) != total {
		t.Fatalf("len(CellWall) = %d, want %d", len(s.CellWall), total)
	}
	for i, c := range st.Cells {
		if !c.Skipped && s.CellWall[i] <= 0 {
			t.Errorf("cell %d: executed but CellWall = %v", i, s.CellWall[i])
		}
	}
	if s.Wall <= 0 {
		t.Errorf("Stats.Wall = %v, want > 0", s.Wall)
	}
}

// stubExperiments swaps the per-cell experiment runner for fn and restores
// it when the test ends.
func stubExperiments(t *testing.T, fn func(context.Context, Config) (*Experiment, error)) {
	t.Helper()
	old := runExperiment
	runExperiment = fn
	t.Cleanup(func() { runExperiment = old })
}

// TestRunStudyFirstErrorAbort: a failing cell cancels the rest of the
// study promptly, the first (lowest-index) error is returned, and no
// goroutines leak.
func TestRunStudyFirstErrorAbort(t *testing.T) {
	checkNoGoroutineLeak(t)
	sentinel := errors.New("cell exploded")
	var started atomic.Int32
	stubExperiments(t, func(ctx context.Context, cfg Config) (*Experiment, error) {
		started.Add(1)
		if cfg.Method == methods.XHRGet {
			return nil, sentinel
		}
		select { // later cells are slow, so the abort has someone to beat
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		return &Experiment{Config: cfg}, nil
	})

	prof := browser.Lookup(browser.Chrome, browser.Ubuntu)
	opts := StudyOptions{
		// XHRGet is cell 0 — the failure the scheduler must report.
		Methods:  []methods.Kind{methods.XHRGet, methods.DOM, methods.WebSocket, methods.JavaTCP},
		Profiles: []*browser.Profile{prof, prof, prof, prof, prof},
		Workers:  2,
	}
	st, err := RunStudyContext(context.Background(), opts)
	if st != nil {
		t.Fatalf("got study %v, want nil on failure", st)
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
	if want := "core: cell XHR GET / C (U)"; !strings.Contains(err.Error(), want) {
		t.Errorf("err = %q, want it to name %q", err, want)
	}
	if n := int(started.Load()); n >= 20 {
		t.Errorf("abort was not prompt: %d of 20 cells started", n)
	}
}

// TestRunStudyFirstErrorDeterministic: when several cells fail, the
// lowest-indexed failure is returned regardless of completion order.
func TestRunStudyFirstErrorDeterministic(t *testing.T) {
	checkNoGoroutineLeak(t)
	errA := errors.New("error A")
	errB := errors.New("error B")
	stubExperiments(t, func(ctx context.Context, cfg Config) (*Experiment, error) {
		switch cfg.Method {
		case methods.XHRGet: // cell 0: slow failure
			time.Sleep(10 * time.Millisecond)
			return nil, errA
		case methods.DOM: // cell 1: fast failure
			return nil, errB
		}
		return &Experiment{Config: cfg}, nil
	})
	prof := browser.Lookup(browser.Chrome, browser.Ubuntu)
	opts := StudyOptions{
		Methods:  []methods.Kind{methods.XHRGet, methods.DOM},
		Profiles: []*browser.Profile{prof},
		Workers:  2,
	}
	_, err := RunStudyContext(context.Background(), opts)
	if !errors.Is(err, errA) {
		t.Fatalf("err = %v, want the lowest-indexed failure (error A)", err)
	}
}

// TestRunStudyContextCanceled: a canceled context aborts the study,
// returns context.Canceled, and leaks no goroutines.
func TestRunStudyContextCanceled(t *testing.T) {
	checkNoGoroutineLeak(t)

	t.Run("pre-canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		st, err := RunStudyContext(ctx, StudyOptions{Runs: 1, Workers: 2})
		if st != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("got (%v, %v), want (nil, context.Canceled)", st, err)
		}
	})

	t.Run("mid-study", func(t *testing.T) {
		release := make(chan struct{})
		var once atomic.Bool
		stubExperiments(t, func(ctx context.Context, cfg Config) (*Experiment, error) {
			if once.CompareAndSwap(false, true) {
				close(release) // first cell is in flight: cancel now
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(5 * time.Second):
				return &Experiment{Config: cfg}, nil
			}
		})
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() {
			<-release
			cancel()
		}()
		start := time.Now()
		st, err := RunStudyContext(ctx, StudyOptions{Runs: 1, Workers: 4})
		if st != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("got (%v, %v), want (nil, context.Canceled)", st, err)
		}
		if wall := time.Since(start); wall > 2*time.Second {
			t.Errorf("cancellation took %v, want prompt abort", wall)
		}
	})
}

// TestRunContextCancelBetweenRuns: the single-cell runner also honours
// cancellation, so even a one-cell study aborts within a repetition.
func TestRunContextCancelBetweenRuns(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, Config{
		Method:  methods.WebSocket,
		Profile: browser.Lookup(browser.Chrome, browser.Ubuntu),
		Runs:    3,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCellSeedPure: the seed depends only on (base, mi, pi) — the
// invariant the determinism guarantee rests on — and matches the
// historical sequential derivation.
func TestCellSeedPure(t *testing.T) {
	if got, want := CellSeed(0, 0, 0), int64(1); got != want {
		t.Errorf("CellSeed(0,0,0) = %d, want %d", got, want)
	}
	if got, want := CellSeed(1000, 3, 5), int64(1000+3*97+5*13+1); got != want {
		t.Errorf("CellSeed(1000,3,5) = %d, want %d", got, want)
	}
	// Distinct cells of the default matrix get distinct seeds.
	seen := map[int64]string{}
	for mi := 0; mi < 10; mi++ {
		for pi := 0; pi < 8; pi++ {
			s := CellSeed(7, mi, pi)
			if prev, dup := seen[s]; dup {
				t.Errorf("seed collision: (%d,%d) and %s both map to %d", mi, pi, prev, s)
			}
			seen[s] = fmt.Sprintf("(%d,%d)", mi, pi)
		}
	}
}
