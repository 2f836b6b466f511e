package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/faults"
	"github.com/browsermetric/browsermetric/internal/methods"
	"github.com/browsermetric/browsermetric/internal/obs"
	"github.com/browsermetric/browsermetric/internal/testbed"
)

// CellSeed derives the testbed seed of the (methodIndex, profileIndex)
// cell. It is a pure function of the matrix position so the execution
// schedule — sequential, parallel, or anything in between — cannot
// influence a cell's random stream, which is what makes parallel and
// sequential studies byte-identical.
func CellSeed(base int64, methodIndex, profileIndex int) int64 {
	return base + int64(methodIndex)*97 + int64(profileIndex)*13 + 1
}

// runExperiment indirects the per-cell experiment execution (runOn on
// the worker's testbed); tests swap it to inject failures and stalls
// without building a broken testbed.
var runExperiment = func(ctx context.Context, tb *testbed.Testbed, cfg Config) (*Experiment, *testbed.Testbed, error) {
	return runOn(ctx, tb, cfg, nil)
}

// RunStudy executes the matrix. Unsupported combinations are marked
// Skipped; any other failure aborts the study and is returned.
func RunStudy(opts StudyOptions) (*Study, error) {
	return RunStudyContext(context.Background(), opts)
}

// RunStudyContext executes the methods × profiles matrix: its cells are
// built by FaultCells (method-major) and run through RunCells, so Cells
// keeps that stable ordering regardless of completion order.
func RunStudyContext(ctx context.Context, opts StudyOptions) (*Study, error) {
	if len(opts.Methods) == 0 {
		for _, s := range methods.Compared() {
			opts.Methods = append(opts.Methods, s.Kind)
		}
	}
	if len(opts.Profiles) == 0 {
		opts.Profiles = browser.Profiles()
	}
	return RunCells(ctx, opts, FaultCells(opts, []faults.Profile{opts.Testbed.Faults}))
}

// FaultCells expands opts' methods × profiles matrix once per fault
// profile, fault-profile major, then method, then browser profile. Each
// cell carries every knob that can influence its measurement, with the
// testbed seed derived from its matrix position via CellSeed; every fault
// profile reuses the same seed schedule, so differences between profiles
// are attributable to the impairment alone. Unsupported combos are
// included (RunCells marks them skipped). It is the one construction
// site for cell configs — studies, sweeps and sweep plans all go through
// it, so a cell is content-addressed identically no matter which of them,
// or which process, computes it. opts.Methods and opts.Profiles must
// already be populated.
func FaultCells(opts StudyOptions, fps []faults.Profile) []Config {
	out := make([]Config, 0, len(fps)*len(opts.Methods)*len(opts.Profiles))
	for _, fp := range fps {
		for mi, kind := range opts.Methods {
			for pi, prof := range opts.Profiles {
				cfg := Config{Method: kind, Profile: prof, Timing: opts.Timing, Runs: opts.Runs, Gap: opts.Gap,
					Testbed: opts.Testbed}
				cfg.Testbed.Faults = fp
				cfg.Testbed.Seed = CellSeed(opts.BaseSeed, mi, pi)
				out = append(out, cfg)
			}
		}
	}
	return out
}

// SplitFaultStudies splits cells, laid out as FaultCells(opts, fps) lays
// out their configs, into one Study per fault profile. The studies share
// cells' backing array and their Stats are left zero.
func SplitFaultStudies(opts StudyOptions, fps []faults.Profile, cells []Cell) []*Study {
	n := len(opts.Methods) * len(opts.Profiles)
	out := make([]*Study, len(fps))
	for i, fp := range fps {
		out[i] = &Study{Options: opts, Cells: cells[i*n : (i+1)*n : (i+1)*n]}
		out[i].Options.Testbed.Faults = fp
	}
	return out
}

// RunCells is the cell engine: every study, artifact and sweep executes
// its cells through it. The cells run on a pool of opts.Workers
// goroutines (0 = GOMAXPROCS), each of which owns one testbed, and every
// cell runs on its worker's testbed reset to the state testbed.New builds
// for the cell's own Config (seed included), so results are independent
// of scheduling order and of the order of cfgs. Cells of the returned Study
// align index-for-index with cfgs; every cfg needs a Profile, and a cell
// whose profile cannot run its method is Skipped. Of opts, only Workers,
// OnCellDone, Tracing, Metrics and Cache are used; the Study's Options
// is opts as given.
//
// Canceling ctx aborts the run and returns ctx.Err(). The first cell
// failure cancels the remaining work and is returned after in-flight
// cells drain ("first" = lowest cell index among the failures observed,
// so the returned error is deterministic too).
func RunCells(ctx context.Context, opts StudyOptions, cfgs []Config) (*Study, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	total := len(cfgs)
	st := &Study{Options: opts}
	st.Cells = make([]Cell, total)
	st.Stats.CellWall = make([]time.Duration, total)
	// Prefill every cell's identity so an aborted run still has
	// well-formed (if experiment-less) rows.
	for i := range cfgs {
		st.Cells[i] = Cell{Spec: methods.Get(cfgs[i].Method), Profile: cfgs[i].Profile}
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total {
		workers = total
	}
	st.Stats.Workers = workers
	if total == 0 {
		return st, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next        atomic.Int64 // cells are handed out in index order
		mu          sync.Mutex   // guards st.Stats, firstErr*, and callback order
		firstErr    error
		firstErrIdx = total
	)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The worker's testbed: built for its first computed cell,
			// reset by every later one. It serves one goroutine, like the
			// simulator inside it.
			var tb *testbed.Testbed
			for idx := int(next.Add(1)) - 1; idx < total; idx = int(next.Add(1)) - 1 {
				if ctx.Err() != nil {
					return
				}
				mu.Lock()
				st.Stats.CellsStarted++
				mu.Unlock()

				cell := st.Cells[idx]
				cellStart := time.Now()
				var err error
				tb, err = runCell(ctx, &opts, cfgs[idx], &cell, tb)
				wall := time.Since(cellStart)

				if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
					// The cell was cut short by cancellation (ours after a
					// failure elsewhere, or the caller's): not a result, not
					// a failure of this cell.
					return
				}

				mu.Lock()
				st.Cells[idx] = cell
				st.Stats.CellWall[idx] = wall
				st.Stats.CellsFinished++
				if cell.Skipped {
					st.Stats.CellsSkipped++
				}
				if cell.Cached {
					st.Stats.CellsCached++
				}
				if err != nil {
					st.Stats.CellsFailed++
					if idx < firstErrIdx {
						firstErr, firstErrIdx = err, idx
					}
				}
				if cb := opts.OnCellDone; cb != nil {
					cb(CellStatus{
						Index:   idx,
						Method:  cfgs[idx].Method,
						Profile: cfgs[idx].Profile,
						Skipped: cell.Skipped,
						Cached:  cell.Cached,
						Err:     err,
						Wall:    wall,
						Done:    st.Stats.CellsFinished,
						Total:   total,
					})
				}
				mu.Unlock()

				if err != nil {
					cancel() // first-error abort: stop scheduling new cells
				}
			}
		}()
	}
	wg.Wait()
	st.Stats.Wall = time.Since(start)
	mergeStudyMetrics(st, opts.Metrics)

	if firstErr != nil {
		return nil, firstErr
	}
	// cancel() is only invoked above when firstErr was recorded, so a
	// non-nil ctx.Err() here is the caller's cancellation or deadline.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return st, nil
}

// mergeStudyMetrics folds the per-cell registries into the study-level
// registry in matrix order (so the merged floats don't depend on cell
// completion order) and adds the scheduler's own counters. Wall times
// are host time and therefore the one part of a metrics snapshot that
// varies between identical runs.
func mergeStudyMetrics(st *Study, m *obs.Metrics) {
	if m == nil {
		return
	}
	for i := range st.Cells {
		m.Merge(st.Cells[i].Metrics)
		if w := st.Stats.CellWall[i]; w > 0 {
			m.ObserveDur("study_cell_wall_ms", w)
		}
	}
	m.Add("study_cells_started", int64(st.Stats.CellsStarted))
	m.Add("study_cells_finished", int64(st.Stats.CellsFinished))
	m.Add("study_cells_skipped", int64(st.Stats.CellsSkipped))
	m.Add("study_cells_failed", int64(st.Stats.CellsFailed))
	m.Add("study_cells_cached", int64(st.Stats.CellsCached))
	m.Set("study_workers", float64(st.Stats.Workers))
	m.Set("study_wall_ms", float64(st.Stats.Wall)/float64(time.Millisecond))
}

// runCell executes one cell on tb (see runOn), filling in cell, and
// returns the testbed for the worker's next cell.
func runCell(ctx context.Context, opts *StudyOptions, cfg Config, cell *Cell, tb *testbed.Testbed) (*testbed.Testbed, error) {
	if !cfg.Profile.Supports(cell.Spec.API) {
		cell.Skipped = true
		return tb, nil
	}
	// The cache is consulted before the tracer/registry are attached:
	// a hit replays the experiment without observability (the key does
	// not — and must not — depend on Tracer/Metrics, which cannot change
	// any simulated outcome).
	if opts.Cache != nil {
		if exp, ok := opts.Cache.Load(cfg); ok {
			cell.Exp = exp
			cell.Cached = true
			return tb, nil
		}
	}
	// An arena serves one goroutine, and the workers run cells at once:
	// each worker's testbed brings its own.
	cfg.Testbed.Arena = nil
	// Each cell gets its own tracer/registry (a Tracer is single-
	// goroutine); the scheduler merges registries in matrix order after
	// the workers drain.
	if opts.Tracing {
		cfg.Tracer = obs.NewTracer()
		cell.Trace = cfg.Tracer
	}
	if opts.Metrics != nil {
		cfg.Metrics = obs.NewMetrics()
		cell.Metrics = cfg.Metrics
	}
	exp, tb, err := runExperiment(ctx, tb, cfg)
	if err == nil && opts.Cache != nil {
		// Persist with the observability fields stripped so the stored
		// entry is keyed and reconstructed from the measurement-relevant
		// config alone.
		stored := cfg
		stored.Tracer, stored.Metrics = nil, nil
		if err = opts.Cache.Store(stored, exp); err != nil {
			err = fmt.Errorf("cache store: %w", err)
		}
	}
	if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		// Name the cell: method / browser×OS, plus the fault profile when
		// the path is impaired.
		name := cell.Spec.Name + " / " + cfg.Profile.Label()
		if cfg.Testbed.Faults.Enabled() {
			name += " / " + cfg.Testbed.Faults.String()
		}
		err = fmt.Errorf("core: cell %s: %w", name, err)
	}
	cell.Exp = exp
	return tb, err
}
