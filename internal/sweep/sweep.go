package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/csv"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"strings"
	"sync/atomic"
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
	// value.
	Workers int

	// Dir is the cache directory: one cells/<hash>.cell entry per
	// completed cell. Re-running a killed sweep on the same Dir replays
	// its finished cells and computes only the rest; Runs of one sweep on
	// the same Dir at the same time share its cells. Empty runs every
	// cell uncached and writes nothing, exporting the same bytes.
	Dir string
	// Log, when non-nil, receives progress and corruption notices.
	Log func(format string, args ...any)
	// Metrics, when non-nil, receives the cache's hit/miss/corruption/
	// store counters as sweep_cache_* series. Observability never
	// changes what is computed.
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

// runCount numbers this process's Runs, so two Runs in one process walk
// the plan in different orders too.
var runCount atomic.Uint64

// cellOrder returns a permutation of 0..n-1 private to this call. Its
// seed is the SHA-256 of the process id, a process-wide call counter and
// the host name, so processes sharing a cache dir, on one host or on
// several, walk the plan in unrelated orders.
func cellOrder(n int) []int {
	host, _ := os.Hostname()
	b := binary.LittleEndian.AppendUint64(nil, uint64(os.Getpid()))
	b = binary.LittleEndian.AppendUint64(b, runCount.Add(1))
	b = append(b, host...)
	return rand.New(rand.NewChaCha8(sha256.Sum256(b))).Perm(n)
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
// core.RunCells pass with the content-addressed cache installed, so every
// completed cell is on disk as soon as it finishes. The cache is the
// sweep's only state: cancelling ctx aborts between cells, and a later
// Run on the same Dir replays the finished cells, computes only the
// missing ones, and exports byte-identically to an uninterrupted run.
//
// The pass walks the plan in an order of its own (cellOrder), so several
// processes running the same sweep on one Dir mostly compute different
// cells and replay each other's: they share the work with no coordinator,
// and each still exports the whole sweep. Exports do not depend on the
// order; when several cells fail, the error names the first failure in
// this Run's order.
func Run(ctx context.Context, opts Options) (*Result, error) {
	opts.fillDefaults()
	so := opts.studyOptions()
	var cache *Cache
	if opts.Dir != "" {
		var err error
		if cache, err = OpenCache(opts.Dir, ""); err != nil {
			return nil, err
		}
		cache.SetLog(opts.Log)
		cache.SetMetrics(opts.Metrics)
		so.Cache = cache
	}
	cfgs := core.FaultCells(so, opts.Faults)
	order := cellOrder(len(cfgs))
	walk := make([]core.Config, len(cfgs))
	for i, j := range order {
		walk[i] = cfgs[j]
	}
	if cb := opts.OnCell; cb != nil {
		n := len(opts.Methods) * len(opts.Profiles)
		so.OnCellDone = func(cs core.CellStatus) {
			idx := order[cs.Index] // the cell's place in the plan
			cs.Index = idx % n     // the position in the fault profile's study
			cb(opts.Faults[idx/n], cs)
		}
	}
	all, err := core.RunCells(ctx, so, walk)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	cells := make([]core.Cell, len(cfgs))
	for i, j := range order {
		cells[j] = all.Cells[i]
	}
	// RunCells succeeded, so every cell finished; a skipped cell is never
	// looked up in the cache.
	st := all.Stats
	res := &Result{Options: opts, Faults: opts.Faults, Studies: core.SplitFaultStudies(so, opts.Faults, cells), Stats: Stats{
		Cells:      len(cfgs),
		Skipped:    st.CellsSkipped,
		Computed:   st.CellsFinished - st.CellsSkipped - st.CellsCached,
		CachedHits: st.CellsCached,
		Wall:       st.Wall,
	}}
	if cache != nil {
		res.Stats.Corrupt = cache.Stats().Corrupt
	}
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
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	for si, st := range r.Studies {
		if err := st.WriteSampleRows(w, r.Faults[si].String()); err != nil {
			return err
		}
	}
	return nil
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

// ImpactReport renders the fault-impact table of one browser profile of
// the sweep: each method's round-2 Δd p95 under every fault profile, with
// its change against the first (reference, normally clean) fault profile,
// and per fault profile the worst HTTP method against the worst socket
// method. Methods prof cannot run are left out. Deterministic: same
// options ⇒ byte-identical output.
func (r *Result) ImpactReport(prof *browser.Profile) string {
	type row struct {
		spec methods.Spec
		p95  []float64
	}
	var rows []row
	for _, k := range r.Options.Methods {
		spec := methods.Get(k)
		if !prof.Supports(spec.API) {
			continue
		}
		rw := row{spec: spec}
		for _, st := range r.Studies {
			rw.p95 = append(rw.p95, st.Cell(k, prof.Label()).Exp.CDF(2).Quantile(0.95))
		}
		rows = append(rows, rw)
	}
	// worst returns the method of transport tr whose p95 grew most under
	// fault profile i; ok is false when no method has that transport.
	worst := func(i int, tr methods.Transport) (d float64, name string, ok bool) {
		for _, rw := range rows {
			if g := rw.p95[i] - rw.p95[0]; rw.spec.Transport == tr && (!ok || g > d) {
				d, name, ok = g, rw.spec.Name, true
			}
		}
		return d, name, ok
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Fault-impact study — Δd2 p95 (ms) on %s, %d runs/cell, seed %d\n\n",
		prof.Label(), r.Options.Runs, r.Options.BaseSeed)
	fmt.Fprintf(&b, "%-22s %-12s", "method", "trans")
	for _, fp := range r.Faults {
		fmt.Fprintf(&b, " %16s", fp)
	}
	b.WriteString("\n")
	for _, rw := range rows {
		fmt.Fprintf(&b, "%-22s %-12s", rw.spec.Name, rw.spec.Transport)
		for i, p := range rw.p95 {
			if i == 0 {
				fmt.Fprintf(&b, " %16.2f", p)
			} else {
				fmt.Fprintf(&b, " %8.2f (%+5.1f)", p, p-rw.p95[0])
			}
		}
		b.WriteString("\n")
	}
	for i := 1; i < len(r.Faults); i++ {
		wh, hm, okH := worst(i, methods.TransportHTTP)
		ws, sm, okS := worst(i, methods.TransportSocket)
		if okH && okS {
			fmt.Fprintf(&b, "\n%s: worst HTTP %s %+.1f ms vs worst socket %s %+.1f ms (p95 vs %s)",
				r.Faults[i], hm, wh, sm, ws, r.Faults[0])
		}
	}
	b.WriteString("\n")
	return b.String()
}

// StatsLine summarizes the run's bookkeeping for humans. Unlike Report it
// depends on how the sweep executed (cold, warm or partly warm), so it is
// deliberately not part of the byte-identical export surface.
func (r *Result) StatsLine() string {
	return fmt.Sprintf("%d cells: %d computed, %d cached, %d skipped (%d corrupt entries recomputed)",
		r.Stats.Cells, r.Stats.Computed, r.Stats.CachedHits, r.Stats.Skipped, r.Stats.Corrupt)
}
