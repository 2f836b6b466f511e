package core

import (
	"sort"
	"time"

	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/methods"
	"github.com/browsermetric/browsermetric/internal/obs"
	"github.com/browsermetric/browsermetric/internal/stats"
	"github.com/browsermetric/browsermetric/internal/testbed"
)

// StudyOptions configures a full measurement matrix (Figure 3: every
// method crossed with every browser×OS combo).
type StudyOptions struct {
	// Methods defaults to the paper's ten compared methods.
	Methods []methods.Kind
	// Profiles defaults to the Table 2 matrix.
	Profiles []*browser.Profile
	// Timing defaults to Date.getTime (the paper's tool default).
	Timing browser.TimingFunc
	// Runs per cell (default 50) and Gap between runs (default 10 s).
	Runs int
	Gap  time.Duration
	// BaseSeed decorrelates cells deterministically: each cell's testbed
	// seed is CellSeed(BaseSeed, methodIndex, profileIndex), a pure
	// function of the cell's matrix position, never of execution order.
	BaseSeed int64
	// Testbed overrides testbed parameters for every cell (e.g. a
	// ServerDelay sweep across the whole matrix). The per-cell Seed is
	// always derived from BaseSeed and overrides Testbed.Seed.
	Testbed testbed.Config
	// Workers caps how many cells execute concurrently. 0 means
	// runtime.GOMAXPROCS(0); 1 reproduces the historical strictly
	// sequential runner. Results are byte-identical for any value —
	// every cell runs on its own isolated testbed with a position-derived
	// seed — so Workers trades wall-clock time only.
	Workers int
	// OnCellDone, if non-nil, is invoked once per cell (including skipped
	// and failed cells) as it completes. Calls are serialized and arrive
	// in completion order, which under concurrency is not matrix order;
	// use CellStatus.Index for the stable position. Keep it fast: the
	// scheduler holds its bookkeeping lock during the call.
	OnCellDone func(CellStatus)
	// Tracing gives every executed cell its own virtual-time span tracer
	// (Cell.Trace), exportable via Study.WriteChromeTrace. Observational
	// only: results are byte-identical with tracing on or off.
	Tracing bool
	// Metrics, when non-nil, receives the merged per-cell metrics plus
	// the scheduler's own counters (study_cells_*, study_cell_wall_ms).
	// Cells are merged in matrix order regardless of completion order.
	Metrics *obs.Metrics
	// Cache, when non-nil, short-circuits cells whose full configuration
	// (method, profile, timing, runs, seed, testbed knobs, fault profile)
	// has a cached result, and persists freshly computed cells. The
	// determinism contract extends through it: a cached replay exports
	// byte-identically to recomputation. Cached cells carry no Trace or
	// Metrics — caching trades the observability stream for wall time.
	Cache CellCache
}

// CellCache caches completed cell experiments, keyed by the cell's full
// configuration. The content-addressed disk implementation lives in
// internal/sweep. Load and Store are called concurrently from study
// workers and must be safe for that.
type CellCache interface {
	// Load returns the cached experiment for cfg, or ok=false. Unreadable
	// or corrupt entries must be reported as misses (never errors): the
	// scheduler recomputes on a miss, which is always sound.
	Load(cfg Config) (exp *Experiment, ok bool)
	// Store persists a completed cell. A Store error aborts the study —
	// silently dropping a cell from a resumable sweep would be worse.
	Store(cfg Config, exp *Experiment) error
}

// CellStatus describes one completed cell for progress reporting.
type CellStatus struct {
	// Index is the cell's position in the stable Study.Cells ordering.
	Index   int
	Method  methods.Kind
	Profile *browser.Profile
	Skipped bool
	// Cached reports the cell was served from StudyOptions.Cache.
	Cached bool
	// Err is the cell's failure, nil for completed and skipped cells.
	Err error
	// Wall is host (not virtual) time spent executing the cell.
	Wall time.Duration
	// Done of Total cells have completed when the callback fires.
	Done, Total int
}

// StudyStats are the scheduler's observability counters.
type StudyStats struct {
	// Workers is the resolved concurrency the study ran with.
	Workers int
	// CellsStarted counts cells handed to a worker; CellsFinished counts
	// cells that ran to completion (including skips). They differ only
	// when the study aborted early.
	CellsStarted  int
	CellsFinished int
	CellsSkipped  int
	CellsFailed   int
	// CellsCached counts cells served from StudyOptions.Cache instead of
	// being recomputed (a subset of CellsFinished).
	CellsCached int
	// Wall is total host wall time; CellWall is per-cell host wall time
	// indexed like Study.Cells (zero for cells never started).
	Wall     time.Duration
	CellWall []time.Duration
}

// Cell is one (method, profile) experiment of a study.
type Cell struct {
	Spec    methods.Spec
	Profile *browser.Profile
	Exp     *Experiment
	// Skipped is set when the profile cannot run the method (e.g.
	// WebSocket on IE 9) — such cells are absent from the paper's figures
	// rather than failures.
	Skipped bool
	// Cached is set when the cell was replayed from StudyOptions.Cache;
	// its Exp is then byte-equivalent to a recomputation but carries no
	// Trace or Metrics.
	Cached bool
	// Trace holds the cell's span tracer when StudyOptions.Tracing was
	// set (nil otherwise, and for skipped cells).
	Trace *obs.Tracer
	// Metrics holds the cell's own registry when StudyOptions.Metrics
	// was set; the same data is already merged into the study registry.
	Metrics *obs.Metrics
}

// Study is a completed matrix.
type Study struct {
	Options StudyOptions
	Cells   []Cell
	// Stats reports what the scheduler did (concurrency, counters,
	// per-cell wall time).
	Stats StudyStats
}

// Cell returns the cell for (method, profile label), or nil.
func (s *Study) Cell(kind methods.Kind, label string) *Cell {
	for i := range s.Cells {
		c := &s.Cells[i]
		if c.Spec.Kind == kind && c.Profile.Label() == label {
			return c
		}
	}
	return nil
}

// MethodCells returns the non-skipped cells of one method in profile order.
func (s *Study) MethodCells(kind methods.Kind) []*Cell {
	var out []*Cell
	for i := range s.Cells {
		c := &s.Cells[i]
		if c.Spec.Kind == kind && !c.Skipped {
			out = append(out, c)
		}
	}
	return out
}

// Calibration summarizes an experiment for overhead correction.
type Calibration struct {
	Method methods.Kind
	Label  string // browser×OS label
	// MedianOverhead and IQR are indexed by round-1, in ms.
	MedianOverhead [methods.Rounds]float64
	IQR            [methods.Rounds]float64
}

// Calibrate derives calibration data from an experiment.
func (e *Experiment) Calibrate() Calibration {
	cal := Calibration{Method: e.Config.Method, Label: e.Config.Profile.Label()}
	for round := 1; round <= methods.Rounds; round++ {
		b := e.Box(round)
		cal.MedianOverhead[round-1] = b.Median
		cal.IQR[round-1] = b.IQR()
	}
	return cal
}

// Correct subtracts the calibrated median overhead from a browser-level
// RTT measurement, yielding an estimate of the true network RTT.
func (c Calibration) Correct(browserRTT time.Duration, round int) time.Duration {
	return browserRTT - time.Duration(c.MedianOverhead[round-1]*float64(time.Millisecond))
}

// Calibratable reports whether correction is trustworthy: the paper's
// criterion is a stable overhead, i.e. a small IQR relative to the median
// (Flash's cross-browser variability makes it "very difficult to
// calibrate").
func (c Calibration) Calibratable(round int) bool {
	iqr := c.IQR[round-1]
	return iqr < 5 // ms of spread around the median
}

// Score ranks a cell's steady-state accuracy: |median Δd2| + IQR(Δd2).
// Lower is better — the paper's trueness + precision framing (ISO 5725).
func (c *Cell) Score() float64 {
	if c.Exp == nil {
		return 0
	}
	b := c.Exp.Box(2)
	m := b.Median
	if m < 0 {
		m = -m
	}
	return m + b.IQR()
}

// Recommendation is the Section 5 guidance, derived from study data
// rather than hard-coded.
type Recommendation struct {
	// BestMethod is the lowest-scoring method averaged across profiles.
	BestMethod methods.Kind
	// BestNative is the best method that needs no plug-in.
	BestNative methods.Kind
	// BestBrowser maps OS name to the browser with the lowest mean score.
	BestBrowser map[string]browser.Name
	// AvoidMethods lists methods whose cross-browser variability makes
	// calibration impractical (median spread or per-cell IQR too large).
	AvoidMethods []methods.Kind
	// Notes carries the timing-function guidance.
	Notes []string
}

// agg accumulates a mean score.
type agg struct {
	sum float64
	n   int
}

// lowest returns the key whose mean score is lowest (ties go to the
// smaller key) among those keep accepts (all when keep is nil); ok is
// false when there is none.
func lowest[K methods.Kind | browser.Name](scores map[K]agg, keep func(K) bool) (best K, ok bool) {
	bestV := 0.0
	for k, a := range scores {
		if keep != nil && !keep(k) {
			continue
		}
		if v := a.sum / float64(a.n); !ok || v < bestV || v == bestV && k < best {
			best, bestV, ok = k, v, true
		}
	}
	return best, ok
}

// Recommend distills Section 5 from a study.
func Recommend(s *Study) Recommendation {
	rec := Recommendation{BestBrowser: map[string]browser.Name{}}
	methodScore := map[methods.Kind]agg{}
	methodMedians := map[methods.Kind][]float64{}

	for i := range s.Cells {
		c := &s.Cells[i]
		if c.Skipped {
			continue
		}
		a := methodScore[c.Spec.Kind]
		methodScore[c.Spec.Kind] = agg{a.sum + c.Score(), a.n + 1}
		methodMedians[c.Spec.Kind] = append(methodMedians[c.Spec.Kind], c.Exp.Box(2).Median)
	}

	// A method is flagged when its median overhead varies widely across
	// browsers (calibration would need per-browser tables nobody has) or
	// its medians are simply huge.
	avoided := map[methods.Kind]bool{}
	for k, meds := range methodMedians {
		if len(meds) < 2 {
			continue
		}
		spread := stats.NewBox(meds)
		if spread.Max-spread.Min > 25 || stats.Median(meds) > 20 {
			avoided[k] = true
			rec.AvoidMethods = append(rec.AvoidMethods, k)
		}
	}
	sort.Slice(rec.AvoidMethods, func(i, j int) bool { return rec.AvoidMethods[i] < rec.AvoidMethods[j] })

	// Browser preference is judged over the methods one would actually
	// deploy, i.e. excluding the uncalibratable ones.
	browserScore := map[browser.OS]map[browser.Name]agg{}
	for i := range s.Cells {
		c := &s.Cells[i]
		if c.Skipped || avoided[c.Spec.Kind] {
			continue
		}
		perBrowser := browserScore[c.Profile.OS]
		if perBrowser == nil {
			perBrowser = map[browser.Name]agg{}
			browserScore[c.Profile.OS] = perBrowser
		}
		a := perBrowser[c.Profile.Browser]
		perBrowser[c.Profile.Browser] = agg{a.sum + c.Score(), a.n + 1}
	}

	rec.BestMethod, _ = lowest(methodScore, nil)
	rec.BestNative, _ = lowest(methodScore, func(k methods.Kind) bool { return methods.Get(k).Availability == "native" })
	for os, perBrowser := range browserScore {
		if b, ok := lowest(perBrowser, nil); ok {
			rec.BestBrowser[os.String()] = b
		}
	}

	rec.Notes = append(rec.Notes,
		"Java applet tools must use System.nanoTime(): Date.getTime() granularity on Windows reaches ~15.6 ms and under-estimates RTTs.",
		"Methods that open fresh TCP connections include the handshake in the measured delay; reuse the measurement object and prefer Δd2-style warm measurements.",
	)
	return rec
}
