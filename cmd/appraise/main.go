// Command appraise regenerates the paper's evaluation artifacts: every
// table and figure of "Appraising the Delay Accuracy in Browser-based
// Network Measurement" (IMC 2013), from the simulated testbed.
//
// Usage:
//
//	appraise -all                # everything (50 runs per cell)
//	appraise -table 1|2|3|4      # one table
//	appraise -fig 3|4|5          # one figure
//	appraise -recommend          # the Section 5 recommendations
//	appraise -attribution        # the Section 4 overhead decompositions
//	appraise -impact             # jitter/throughput/loss and server-overhead reports
//	appraise -all -runs 20       # fewer repetitions (faster)
//	appraise -all -workers 4     # cap the study's cell-level parallelism
//	appraise -csv study.csv      # every sample of the study as CSV
//	appraise -markdown report.md # Markdown report of the study
//	appraise -trace out.json     # Chrome trace_event export of the study
//	appraise -metrics m.json     # metrics snapshot (JSON, or Prometheus text without .json)
//	appraise -cellstats          # slowest cells by host wall time
//	appraise -all -progress      # structured per-cell progress on stderr
//	appraise -fig 3 -faults lossy1pct  # appraise under a network-impairment profile
//	appraise -faultimpact        # Δd degradation study across fault profiles
//	appraise -faultimpact -cache-dir d  # the same study, replayed from d when warm
//	appraise -all -cache-dir d   # content-addressed cell cache: warm reruns replay from disk
//	appraise -sweep              # methods x browsers x fault profiles, uncached
//	appraise -sweep -cache-dir d # the same sweep on a cache; rerun to finish a killed sweep
//	appraise -sweep -cache-dir d & appraise -sweep -cache-dir d  # several processes share one sweep
//	appraise -fig 3 -cpuprofile cpu.pb.gz -memprofile mem.pb.gz  # pprof profiles of the run
//
// All progress and statistics lines go to stderr; stdout carries only the
// regenerated artifacts, so reports can be piped or redirected cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"time"

	bm "github.com/browsermetric/browsermetric"
)

// options are the parsed command line that run reads. The artifact
// selectors and side-output paths mirror the flags of the same names.
type options struct {
	table, fig, runs                                                          int
	all, recommend, ascii, attribution, impact, cellstats, faultimpact, sweep bool
	csvPath, mdPath, tracePath, metricsPath, cpuProfile, memProfile           string
	// seed decorrelates the study cells; workers caps the scheduler's
	// parallelism (0 = one worker per CPU, 1 = sequential).
	seed    int64
	workers int
	// progress selects structured per-cell lines on stderr.
	progress bool
	// faults are the -faults impairment profiles: at most one, which
	// every study cell runs under, or the list a -sweep crosses (none =
	// the clean wire for a study, every built-in profile for a sweep).
	faults []bm.FaultProfile
	// cacheDir (-cache-dir) holds the content-addressed cell cache that
	// every matrix of the invocation replays unchanged cells from.
	cacheDir string
	// metrics is the registry every matrix meters into for -metrics; run
	// makes it.
	metrics *bm.Metrics
}

// cells says which cell matrix an output needs.
type cells uint8

const (
	noCells   cells = iota
	study           // the Fig-3 study, run once and shared
	ownMatrix       // a matrix of its own (-sweep, -faultimpact)
	anyMatrix       // whichever matrices run: the study when no other does (-metrics)
)

// output is one thing an invocation can produce: a table, a figure, a
// report or a side file. The outputs table lists them in print order, and
// the usage check, the decision to run the study and run all read it.
type output struct {
	// table and fig are the -table/-fig values that select the output (0
	// for none), inAll marks the outputs of -all, and on, when non-nil,
	// reports whether other flags select it.
	table, fig int
	inAll      bool
	on         func(o *options) bool
	cells      cells
	// render returns the output's stdout text (empty for a side file,
	// which it writes itself); s is the study when cells is study.
	render func(o *options, s *bm.Study) (string, error)
}

// picked reports whether o selects the output.
func (out *output) picked(o *options) bool {
	return o.all && out.inAll || out.table != 0 && out.table == o.table ||
		out.fig != 0 && out.fig == o.fig || out.on != nil && out.on(o)
}

// text adapts a renderer that cannot fail.
func text(f func() string) func(*options, *bm.Study) (string, error) {
	return func(*options, *bm.Study) (string, error) { return f(), nil }
}

// outputs is every output in print order. The -cellstats table prints
// last, so the artifacts above it are byte-identical with and without it;
// the side files follow, and the metrics snapshot comes after every matrix
// it meters.
var outputs = []output{
	{table: 1, inAll: true, render: text(bm.Table1)},
	{table: 2, inAll: true, render: text(bm.Table2)},
	{fig: 3, inAll: true, cells: study, render: func(o *options, s *bm.Study) (string, error) {
		if o.ascii {
			return bm.Fig3ASCII(s, 72), nil
		}
		return bm.Fig3(s), nil
	}},
	{fig: 4, inAll: true, render: func(o *options, _ *bm.Study) (string, error) {
		report, _, err := bm.Fig4(o.runs)
		if err != nil || !o.ascii {
			return report, err
		}
		art, err := bm.Fig4ASCII(o.runs, 50)
		return report + "\n" + art, err
	}},
	{fig: 5, inAll: true, render: text(func() string { report, _ := bm.Fig5(12); return report })},
	{table: 3, inAll: true, render: func(o *options, _ *bm.Study) (string, error) {
		report, _, err := bm.Table3(o.runs)
		return report, err
	}},
	{table: 4, inAll: true, render: func(o *options, _ *bm.Study) (string, error) {
		report, _, err := bm.Table4(o.runs)
		return report, err
	}},
	{inAll: true, on: func(o *options) bool { return o.recommend }, cells: study,
		render: func(_ *options, s *bm.Study) (string, error) { return recommendations(s), nil }},
	{inAll: true, on: func(o *options) bool { return o.attribution }, render: attribution},
	{inAll: true, on: func(o *options) bool { return o.impact }, render: func(o *options, _ *bm.Study) (string, error) {
		report, err := bm.ImpactReport(bm.Firefox, bm.Windows, bm.NanoTime)
		if err != nil {
			return "", err
		}
		server, err := bm.ServerOverheadReport(bm.Firefox, bm.Windows, bm.NanoTime, o.runs)
		return report + "\n" + server, err
	}},
	{on: func(o *options) bool { return o.faultimpact }, cells: ownMatrix, render: func(o *options, _ *bm.Study) (string, error) {
		// Opera/Windows supports all ten methods, and its Flash methods
		// open fresh connections: the handshake-sensitivity showcase.
		opera := bm.LookupProfile(bm.Opera, bm.Windows)
		res, err := runSweep(o, fmt.Sprintf("the fault-impact study (%d profiles x %d methods on %s)",
			len(bm.FaultProfiles()), len(bm.ComparedMethods()), opera.Label()), bm.SweepOptions{Profiles: []*bm.Profile{opera}})
		if err != nil {
			return "", err
		}
		return res.ImpactReport(opera), nil
	}},
	{on: func(o *options) bool { return o.sweep }, cells: ownMatrix, render: func(o *options, _ *bm.Study) (string, error) {
		nFaults := len(o.faults)
		if nFaults == 0 {
			nFaults = len(bm.FaultProfiles())
		}
		res, err := runSweep(o, fmt.Sprintf("the sweep (%d methods x %d combos x %d fault profiles)",
			len(bm.ComparedMethods()), len(bm.Profiles()), nFaults), bm.SweepOptions{Faults: o.faults})
		if err != nil {
			return "", err
		}
		// The report and the CSV are the byte surfaces that are identical
		// however many processes shared the sweep's cache dir.
		if o.csvPath != "" {
			if err := writeFile(o.csvPath, "sweep samples", res.WriteCSV); err != nil {
				return "", err
			}
		}
		return res.Report(), nil
	}},
	{on: func(o *options) bool { return o.cellstats }, cells: study,
		render: func(_ *options, s *bm.Study) (string, error) { return bm.CellStatsTable(s, 15), nil }},
	{on: func(o *options) bool { return o.csvPath != "" && !o.sweep }, cells: study, render: func(o *options, s *bm.Study) (string, error) {
		return "", writeFile(o.csvPath, "study samples", s.WriteCSV)
	}},
	{on: func(o *options) bool { return o.mdPath != "" }, cells: study, render: func(o *options, s *bm.Study) (string, error) {
		return "", writeFile(o.mdPath, "Markdown report", func(w io.Writer) error {
			_, err := io.WriteString(w, bm.MarkdownReport(s))
			return err
		})
	}},
	{on: func(o *options) bool { return o.tracePath != "" }, cells: study, render: func(o *options, s *bm.Study) (string, error) {
		return "", writeFile(o.tracePath, "Chrome trace", s.WriteChromeTrace)
	}},
	{on: func(o *options) bool { return o.metricsPath != "" }, cells: anyMatrix, render: func(o *options, _ *bm.Study) (string, error) {
		return "", writeFile(o.metricsPath, "metrics snapshot", func(w io.Writer) error {
			if strings.HasSuffix(o.metricsPath, ".json") {
				return o.metrics.WriteJSON(w)
			}
			return o.metrics.WritePrometheus(w)
		})
	}},
}

// selected returns the outputs o asks for, in print order, and whether
// they need the Fig-3 study.
func selected(o *options) (outs []*output, needStudy bool) {
	own, meters := false, false
	for i := range outputs {
		out := &outputs[i]
		if !out.picked(o) {
			continue
		}
		outs = append(outs, out)
		needStudy = needStudy || out.cells == study
		own = own || out.cells == ownMatrix
		meters = meters || out.cells == anyMatrix
	}
	return outs, needStudy || meters && !own
}

// recommendations renders the Section 5 recommendations derived from s.
func recommendations(s *bm.Study) string {
	rec := bm.Recommend(s)
	var b strings.Builder
	fmt.Fprintln(&b, "Section 5: practical considerations (derived from the study)")
	fmt.Fprintf(&b, "  best method overall:   %v\n", rec.BestMethod)
	fmt.Fprintf(&b, "  best plugin-free:      %v\n", rec.BestNative)
	oses := make([]string, 0, len(rec.BestBrowser))
	for os := range rec.BestBrowser {
		oses = append(oses, os)
	}
	sort.Strings(oses)
	for _, os := range oses {
		fmt.Fprintf(&b, "  preferred browser on %s: %v\n", os, rec.BestBrowser[os])
	}
	fmt.Fprintf(&b, "  avoid (uncalibratable): %v", rec.AvoidMethods)
	for _, n := range rec.Notes {
		fmt.Fprintf(&b, "\n  note: %s", n)
	}
	return b.String()
}

// attribution renders the two Section 4 investigations: Opera's Flash
// handshake and the Java socket clock error.
func attribution(o *options, _ *bm.Study) (string, error) {
	var reports []string
	for _, c := range []struct {
		m      bm.Method
		b      bm.Browser
		timing bm.TimingFunc
		warp   time.Duration
	}{
		{bm.MethodFlashGet, bm.Opera, bm.NanoTime, 0},
		{bm.MethodJavaTCP, bm.Chrome, bm.GetTime, 5 * time.Minute},
	} {
		report, err := bm.AttributionReport(c.m, c.b, bm.Windows, bm.Options{
			Timing: c.timing, Runs: o.runs, Warp: c.warp,
		})
		if err != nil {
			return "", err
		}
		reports = append(reports, report)
	}
	return strings.Join(reports, "\n"), nil
}

// runMatrix runs one cell matrix (the study, a -sweep or the -faultimpact
// sweep; what names it) with the invocation's progress on stderr: a
// -progress line per cell or an n/total counter, then one stats line.
// exec runs the matrix, calling onCell as each cell finishes, and returns
// the matrix's cell counts.
func runMatrix(o *options, what string, exec func(onCell func(bm.FaultProfile, bm.CellStatus)) (string, error)) error {
	fmt.Fprintf(os.Stderr, "running %s, %d runs/cell...\n", what, o.runs)
	start := time.Now()
	partialLine := false // an unterminated \r counter line is on stderr
	stats, err := exec(func(fp bm.FaultProfile, cs bm.CellStatus) {
		if !o.progress {
			fmt.Fprintf(os.Stderr, "\r  %d/%d cells", cs.Done, cs.Total)
			if partialLine = cs.Done != cs.Total; !partialLine {
				fmt.Fprintln(os.Stderr)
			}
			return
		}
		status := "ok"
		switch {
		case cs.Skipped:
			status = "skip"
		case cs.Err != nil:
			status = "fail"
		case cs.Cached:
			status = "hit"
		}
		// One complete line per cell, safe to interleave with other
		// stderr writers and to parse.
		fmt.Fprintf(os.Stderr, "cell %3d/%d %-4s faults=%q method=%q browser=%q wall=%v\n", cs.Done, cs.Total, status,
			fp.String(), cs.Method.String(), cs.Profile.Label(), cs.Wall.Round(10*time.Microsecond))
	})
	if partialLine {
		// The matrix ended (failure or cancellation) mid-counter: finish
		// the line so the error doesn't print on top of it.
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "done in %v: %s\n", time.Since(start).Round(time.Millisecond), stats)
	return nil
}

// logStderr prints a cache notice (a corrupt entry recomputed) on stderr.
func logStderr(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// runStudy runs the Fig-3 study: every compared method on every browser
// profile, under the -faults profile.
func runStudy(o *options) (*bm.Study, error) {
	opts := bm.StudyOptions{
		Runs:     o.runs,
		BaseSeed: o.seed,
		Workers:  o.workers,
		Tracing:  o.tracePath != "",
		Metrics:  o.metrics,
	}
	if len(o.faults) == 1 {
		opts.Testbed.Faults = o.faults[0]
	}
	if o.cacheDir != "" {
		cache, err := bm.OpenSweepCache(o.cacheDir, "")
		if err != nil {
			return nil, err
		}
		cache.SetLog(logStderr)
		cache.SetMetrics(o.metrics)
		opts.Cache = cache
	}
	var s *bm.Study
	err := runMatrix(o, fmt.Sprintf("the full matrix (%d methods x %d combos, faults %s)",
		len(bm.ComparedMethods()), len(bm.Profiles()), opts.Testbed.Faults), func(onCell func(bm.FaultProfile, bm.CellStatus)) (string, error) {
		opts.OnCellDone = func(cs bm.CellStatus) { onCell(opts.Testbed.Faults, cs) }
		var err error
		if s, err = bm.RunStudy(opts); err != nil {
			return "", err
		}
		st := s.Stats
		return fmt.Sprintf("%d cells: %d computed, %d cached, %d skipped (%d workers)", st.CellsFinished,
			st.CellsFinished-st.CellsCached-st.CellsSkipped, st.CellsCached, st.CellsSkipped, st.Workers), nil
	})
	return s, err
}

// runSweep runs opts as a sweep with the invocation's runs, seed, workers,
// cache and metrics. Without -cache-dir it runs uncached; with it, a rerun
// replays every finished cell, and processes running the same sweep on
// the directory at once share its cells.
func runSweep(o *options, what string, opts bm.SweepOptions) (*bm.SweepResult, error) {
	opts.Runs, opts.BaseSeed, opts.Workers = o.runs, o.seed, o.workers
	opts.Dir, opts.Log, opts.Metrics = o.cacheDir, logStderr, o.metrics
	var res *bm.SweepResult
	err := runMatrix(o, what, func(onCell func(bm.FaultProfile, bm.CellStatus)) (string, error) {
		opts.OnCell = onCell
		var err error
		if res, err = bm.RunSweep(context.Background(), opts); err != nil {
			return "", err
		}
		return res.StatsLine(), nil
	})
	return res, err
}

// writeFile creates path, fills it with write and closes it, then notes
// on stderr what it wrote.
func writeFile(path, what string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s to %s\n", what, path)
	return nil
}

// run regenerates the selected artifacts onto w (stdout in main). Files
// named by the path flags are written as side outputs, and progress goes
// to stderr.
func run(w io.Writer, o options) error {
	if o.metricsPath != "" {
		o.metrics = bm.NewMetrics()
	}
	outs, needStudy := selected(&o)
	var s *bm.Study
	if needStudy {
		var err error
		if s, err = runStudy(&o); err != nil {
			return err
		}
	}
	for _, out := range outs {
		stdout, err := out.render(&o, s)
		if err != nil {
			return err
		}
		if stdout != "" {
			fmt.Fprintln(w, stdout)
		}
	}
	return nil
}

// parseArgs parses and validates the command line (args without the
// program name). It reports each problem on stderr and returns it as an
// error: flag.ErrHelp for -h, errNoOutput when args select nothing.
func parseArgs(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("appraise", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.IntVar(&o.table, "table", 0, "regenerate one table (1-4)")
	fs.IntVar(&o.fig, "fig", 0, "regenerate one figure (3-5)")
	fs.IntVar(&o.runs, "runs", 50, "repetitions per experiment cell")
	fs.BoolVar(&o.all, "all", false, "regenerate every table and figure")
	fs.BoolVar(&o.recommend, "recommend", false, "print the Section 5 recommendations")
	fs.BoolVar(&o.ascii, "ascii", false, "render Figure 3 as terminal box-plot art")
	fs.BoolVar(&o.attribution, "attribution", false, "decompose overheads (Section 4 investigations)")
	fs.BoolVar(&o.impact, "impact", false, "jitter/throughput/loss impact report")
	fs.StringVar(&o.csvPath, "csv", "", "also export the full study's samples (with -sweep, the sweep's) as CSV to this file")
	fs.StringVar(&o.mdPath, "markdown", "", "write a Markdown report of the full study to this file")
	fs.Int64Var(&o.seed, "seed", 0, "base seed for the deterministic simulation")
	fs.IntVar(&o.workers, "workers", 0, "concurrent study cells (0 = one per CPU, 1 = sequential; results are identical)")
	fs.StringVar(&o.tracePath, "trace", "", "write the study as Chrome trace_event JSON to this file (open in chrome://tracing or Perfetto)")
	fs.StringVar(&o.metricsPath, "metrics", "", "write a metrics snapshot to this file (.json extension = JSON, otherwise Prometheus text)")
	fs.BoolVar(&o.cellstats, "cellstats", false, "print the slowest study cells by host wall time")
	fs.BoolVar(&o.progress, "progress", false, "structured per-cell progress lines on stderr (instead of the counter)")
	faults := fs.String("faults", "", "network-impairment profile for every study cell (clean, lossy1pct, burstywifi, congested); with -sweep, a comma-separated list")
	fs.BoolVar(&o.faultimpact, "faultimpact", false, "Δd degradation study: every method under every fault profile")
	fs.StringVar(&o.cacheDir, "cache-dir", "", "content-addressed cell cache directory (unchanged cells replay from disk byte-identically)")
	fs.BoolVar(&o.sweep, "sweep", false, "run methods x browsers x fault profiles as one sweep (with -cache-dir, rerun to finish a killed sweep, run several at once to share it)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the whole invocation to this file (go tool pprof)")
	fs.StringVar(&o.memProfile, "memprofile", "", "write an allocation profile to this file at exit (go tool pprof)")
	if err := fs.Parse(args); err != nil {
		return o, err // the flag package has reported it
	}
	err := o.parseFaults(*faults)
	if err == nil {
		err = o.check()
	}
	if errors.Is(err, errNoOutput) {
		fs.Usage()
	} else if err != nil {
		fmt.Fprintln(stderr, "appraise:", err)
	}
	return o, err
}

// errNoOutput is parseArgs' error for a command line that selects no
// output.
var errNoOutput = errors.New("no output selected")

// parseFaults sets o.faults from the comma-separated -faults value.
func (o *options) parseFaults(list string) error {
	if list == "" {
		return nil
	}
	for _, name := range strings.Split(list, ",") {
		fp, err := bm.ParseFaultProfile(name)
		if err != nil {
			return err
		}
		o.faults = append(o.faults, fp)
	}
	return nil
}

// check validates the selection against the outputs table.
func (o *options) check() error {
	var tables, figs []int
	for _, out := range outputs {
		if out.table != 0 {
			tables = append(tables, out.table)
		}
		if out.fig != 0 {
			figs = append(figs, out.fig)
		}
	}
	switch {
	case o.table != 0 && !slices.Contains(tables, o.table):
		return fmt.Errorf("no table %d (the tables are %v)", o.table, tables)
	case o.fig != 0 && !slices.Contains(figs, o.fig):
		return fmt.Errorf("no figure %d (the figures are %v)", o.fig, figs)
	}
	outs, needStudy := selected(o)
	switch {
	case len(outs) == 0:
		return errNoOutput
	case needStudy && len(o.faults) > 1:
		return fmt.Errorf("the study runs under one -faults profile; only -sweep takes a list")
	}
	return nil
}

// startProfiles begins CPU profiling and returns the function that ends
// it and writes the allocation profile, so the heap profile reflects the
// retained state of the full run, not the state at flag parse.
func startProfiles(cpu, mem string) (stop func(), err error) {
	var cpuFile *os.File
	if cpu != "" {
		if cpuFile, err = os.Create(cpu); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "appraise: cpuprofile:", err)
			}
		}
		if mem != "" {
			runtime.GC() // materialize up-to-date allocation statistics
			err := writeFile(mem, "allocation profile", func(w io.Writer) error { return pprof.Lookup("allocs").WriteTo(w, 0) })
			if err != nil {
				fmt.Fprintln(os.Stderr, "appraise: memprofile:", err)
			}
		}
	}, nil
}

func main() {
	o, err := parseArgs(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	} else if err != nil {
		os.Exit(2)
	}
	stop, err := startProfiles(o.cpuProfile, o.memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "appraise:", err)
		os.Exit(2)
	}
	err = run(os.Stdout, o)
	stop() // os.Exit skips defers, and a truncated CPU profile is worse than none
	if err != nil {
		fmt.Fprintln(os.Stderr, "appraise:", err)
		os.Exit(1)
	}
}
