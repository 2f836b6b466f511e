package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/core"
	"github.com/browsermetric/browsermetric/internal/faults"
	"github.com/browsermetric/browsermetric/internal/methods"
	"github.com/browsermetric/browsermetric/internal/obs"
	"github.com/browsermetric/browsermetric/internal/stats"
)

// Options configures a sweep: the methods × browser-profiles × fault-
// profiles matrix, executed as one cache-backed run.
type Options struct {
	// Methods defaults to the paper's ten compared methods.
	Methods []methods.Kind
	// Profiles defaults to the Table 2 browser×OS matrix.
	Profiles []*browser.Profile
	// Faults defaults to every built-in fault profile.
	Faults []faults.Profile
	// Timing selects the timestamping API (default Date.getTime).
	Timing browser.TimingFunc
	// Runs per cell and Gap between runs (defaults 50 and 10 s).
	Runs int
	Gap  time.Duration
	// BaseSeed decorrelates cells; every fault profile reuses the same
	// per-cell seed schedule, so differences between profiles are
	// attributable to the impairment alone.
	BaseSeed int64
	// Workers caps cell concurrency. Exports are byte-identical for any
	// value; the sweep identity deliberately excludes it.
	Workers int

	// Dir is the cache directory (required): one cells/<hash>.cell entry
	// per completed cell. Re-running a killed sweep on the same Dir
	// replays its finished cells and computes only the rest.
	Dir string
	// Log, when non-nil, receives progress and corruption notices.
	Log func(format string, args ...any)
	// Metrics, when non-nil, receives the cache's hit/miss/corruption/
	// store counters as sweep_cache_* series. Excluded from the sweep
	// identity: observability never changes what is computed.
	Metrics *obs.Metrics
	// OnCell, when non-nil, fires per completed cell (skipped cells
	// included) with the fault profile it belongs to (see
	// core.StudyOptions.OnCellDone caveats). CellStatus.Index is the
	// cell's position in that profile's study; Done and Total count the
	// whole sweep.
	OnCell func(fp faults.Profile, cs core.CellStatus)
}

func (o *Options) fillDefaults() {
	if len(o.Methods) == 0 {
		for _, s := range methods.Compared() {
			o.Methods = append(o.Methods, s.Kind)
		}
	}
	if len(o.Profiles) == 0 {
		o.Profiles = browser.Profiles()
	}
	if len(o.Faults) == 0 {
		o.Faults = faults.Profiles()
	}
	if o.Runs == 0 {
		o.Runs = 50
	}
	if o.Gap == 0 {
		o.Gap = 10 * time.Second
	}
	if o.Log == nil {
		o.Log = func(string, ...any) {}
	}
}

// ID returns the sweep's configuration identity: the SHA-256 of the
// canonical sweep description. Shard workers must present the
// coordinator's ID at Hello. Workers is excluded (any worker count produces byte-identical
// exports); everything that can change a cell's samples or the matrix
// shape is included.
func (o Options) ID() string {
	o.fillDefaults()
	var b strings.Builder
	b.WriteString("browsermetric sweep v1\n")
	fmt.Fprintf(&b, "salt=%s\n", DefaultSalt)
	fmt.Fprintf(&b, "timing=%s\n", o.Timing)
	fmt.Fprintf(&b, "runs=%d\n", o.Runs)
	fmt.Fprintf(&b, "gap_ns=%d\n", int64(o.Gap))
	fmt.Fprintf(&b, "seed=%d\n", o.BaseSeed)
	for _, m := range o.Methods {
		fmt.Fprintf(&b, "method=%s\n", m)
	}
	for _, p := range o.Profiles {
		fmt.Fprintf(&b, "profile=%s load=%s\n", p.Label(), strconv.FormatFloat(p.Load(), 'x', -1, 64))
	}
	for _, fp := range o.Faults {
		fmt.Fprintf(&b, "faults=%s\n", fp)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// Stats summarizes what a sweep did.
type Stats struct {
	// Cells is the matrix size; Skipped counts unsupported cells.
	Cells   int
	Skipped int
	// Computed cells ran the simulator; CachedHits replayed from disk
	// (on a re-run of a killed sweep, the cells it had finished).
	Computed   int
	CachedHits int
	// Corrupt counts cache entries that failed verification and were
	// recomputed.
	Corrupt int64
	// Wall is total host wall time.
	Wall time.Duration
}

// Result is a completed sweep: one study per fault profile, in Options
// order, plus the counters.
type Result struct {
	Options Options
	Faults  []faults.Profile
	Studies []*core.Study
	Stats   Stats
}

// studyOptions is the fault-free matrix every fault profile of the sweep
// expands through core.FaultCells. Plan goes through the same expansion,
// so a cell planned out-of-process is content-addressed identically to
// one Run executes.
func (o *Options) studyOptions() core.StudyOptions {
	return core.StudyOptions{
		Methods:  o.Methods,
		Profiles: o.Profiles,
		Timing:   o.Timing,
		Runs:     o.Runs,
		Gap:      o.Gap,
		BaseSeed: o.BaseSeed,
		Workers:  o.Workers,
	}
}

// Run executes the sweep: every cell of every fault profile runs in one
// core.RunFaultStudies call with the content-addressed cache installed,
// so every completed cell is on disk as soon as it finishes. The cache
// is the sweep's only state: cancelling ctx aborts between cells, and a
// later Run on the same Dir replays the finished cells, computes only
// the missing ones, and exports byte-identically to an uninterrupted run.
func Run(ctx context.Context, opts Options) (*Result, error) {
	opts.fillDefaults()
	cache, err := OpenCache(opts.Dir, "")
	if err != nil {
		return nil, err
	}
	cache.SetLog(opts.Log)
	cache.SetMetrics(opts.Metrics)

	so := opts.studyOptions()
	so.Cache = cache
	if cb := opts.OnCell; cb != nil {
		n := len(opts.Methods) * len(opts.Profiles)
		so.OnCellDone = func(cs core.CellStatus) {
			fp := opts.Faults[cs.Index/n]
			cs.Index %= n // the position in the fault profile's study
			cb(fp, cs)
		}
	}
	start := time.Now()
	studies, err := core.RunFaultStudies(ctx, so, opts.Faults)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	res := &Result{Options: opts, Faults: opts.Faults, Studies: studies}
	for _, st := range studies {
		for _, c := range st.Cells {
			res.Stats.Cells++
			switch {
			case c.Skipped:
				res.Stats.Skipped++
			case c.Cached:
				res.Stats.CachedHits++
			default:
				res.Stats.Computed++
			}
		}
	}
	res.Stats.Wall = time.Since(start)
	res.Stats.Corrupt = cache.Stats().Corrupt
	return res, nil
}

// WriteCSV exports every sample of every study with the fault profile in
// the leading column — the sweep-wide analogue of Study.WriteCSV, and
// the byte surface the cached ≡ recomputed equivalence tests compare.
func (r *Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{"faults"}, core.SampleColumns...)); err != nil {
		return err
	}
	for si, st := range r.Studies {
		if err := st.WriteSampleRows(cw, r.Faults[si].String()); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Report renders the sweep as a text table: one row per method, the
// median (across browser profiles) of per-cell median Δd2 under each
// fault profile. Deterministic: same options ⇒ byte-identical output.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sweep — median Δd2 (ms) across %d browser profiles, %d runs/cell, seed %d\n\n",
		len(r.Options.Profiles), r.Options.Runs, r.Options.BaseSeed)
	fmt.Fprintf(&b, "%-22s", "method")
	for _, fp := range r.Faults {
		fmt.Fprintf(&b, " %12s", fp)
	}
	b.WriteString("\n")
	for _, k := range r.Options.Methods {
		fmt.Fprintf(&b, "%-22s", methods.Get(k).Name)
		for si := range r.Studies {
			var meds []float64
			for _, c := range r.Studies[si].MethodCells(k) {
				meds = append(meds, c.Exp.MedianOverhead(2))
			}
			if len(meds) == 0 {
				fmt.Fprintf(&b, " %12s", "-")
				continue
			}
			fmt.Fprintf(&b, " %12.2f", stats.Median(meds))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// StatsLine summarizes the run's bookkeeping for humans. Unlike Report it
// depends on how the sweep executed (cold, warm or partly warm), so it is
// deliberately not part of the byte-identical export surface.
func (r *Result) StatsLine() string {
	return fmt.Sprintf("%d cells: %d computed, %d cached, %d skipped (%d corrupt entries recomputed)",
		r.Stats.Cells, r.Stats.Computed, r.Stats.CachedHits, r.Stats.Skipped, r.Stats.Corrupt)
}
