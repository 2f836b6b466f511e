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
//	appraise -runs 20            # fewer repetitions (faster)
//	appraise -workers 4          # cap the study's cell-level parallelism
//	appraise -trace out.json     # Chrome trace_event export of the study
//	appraise -metrics m.json     # metrics snapshot (JSON or text by extension)
//	appraise -cellstats          # slowest cells by host wall time
//	appraise -progress           # structured per-cell progress on stderr
//	appraise -faults lossy1pct   # appraise under a network-impairment profile
//	appraise -faultimpact        # Δd degradation study across fault profiles
//	appraise -cache-dir d ...    # content-addressed cell cache: warm reruns replay from disk
//	appraise -sweep -cache-dir d # methods x browsers x fault profiles; rerun to finish a killed sweep
//	appraise -sweep -cache-dir d & appraise -sweep -cache-dir d  # several processes share one sweep
//	appraise -cpuprofile cpu.pb.gz -memprofile mem.pb.gz ...  # pprof profiles of the run
//
// All progress and statistics lines go to stderr; stdout carries only the
// regenerated artifacts, so reports can be piped or redirected cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	bm "github.com/browsermetric/browsermetric"
)

// cpuProfileFile is the open -cpuprofile output; memProfilePath the
// -memprofile destination. Both are finalized by stopProfiles, which
// exit() routes every termination path through (os.Exit skips defers,
// and a truncated CPU profile is worse than none).
var (
	cpuProfileFile *os.File
	memProfilePath string
)

// startProfiles begins CPU profiling and records the heap-profile
// destination. The heap profile is written at exit so it reflects the
// retained state of the full run, not the state at flag parse.
func startProfiles(cpu, mem string) error {
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		cpuProfileFile = f
	}
	memProfilePath = mem
	return nil
}

// stopProfiles finalizes both profile outputs; safe to call on any path,
// including before startProfiles ran.
func stopProfiles() {
	if cpuProfileFile != nil {
		pprof.StopCPUProfile()
		if err := cpuProfileFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "appraise: cpuprofile:", err)
		}
		cpuProfileFile = nil
	}
	if memProfilePath != "" {
		f, err := os.Create(memProfilePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "appraise: memprofile:", err)
			return
		}
		runtime.GC() // materialize up-to-date allocation statistics
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fmt.Fprintln(os.Stderr, "appraise: memprofile:", err)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "appraise: memprofile:", err)
		}
		memProfilePath = ""
	}
}

// exit flushes the profiles before terminating; every exit in main goes
// through it.
func exit(code int) {
	stopProfiles()
	os.Exit(code)
}

// baseSeed decorrelates the study cells; settable via -seed.
var baseSeed int64

// workers caps the study scheduler's parallelism; settable via -workers
// (0 = one worker per CPU, 1 = sequential).
var workers int

// tracing / metricsReg / progressMode mirror the -trace, -metrics and
// -progress flags for runStudy.
var (
	tracing      bool
	metricsReg   *bm.Metrics
	progressMode bool
)

// faultProfile is the impairment profile every study cell runs under
// (-faults flag; FaultClean keeps the paper's pristine wire).
var faultProfile bm.FaultProfile

// studyCache, when non-nil (-cache-dir), replays unchanged study cells
// from the content-addressed disk cache instead of recomputing them.
var studyCache *bm.SweepCache

// runStudy executes the full matrix with progress on stderr. Everything
// it prints goes to stderr — stdout is reserved for artifacts — and any
// partial carriage-return counter line is terminated before returning,
// so a following report or error message starts on a fresh line.
func runStudy(runs int) (*bm.Study, error) {
	fmt.Fprintf(os.Stderr, "running the full matrix (%d methods x %d combos x %d runs)...\n",
		len(bm.ComparedMethods()), len(bm.Profiles()), runs)
	opts := bm.StudyOptions{
		Runs:     runs,
		BaseSeed: baseSeed,
		Workers:  workers,
		Tracing:  tracing,
		Metrics:  metricsReg,
	}
	opts.Testbed.Faults = faultProfile
	if faultProfile.Enabled() {
		fmt.Fprintf(os.Stderr, "fault profile: %s\n", faultProfile)
	}
	if studyCache != nil {
		opts.Cache = studyCache
	}
	partialLine := false // an unterminated \r counter line is on stderr
	if progressMode {
		// Structured per-cell lines: one complete line per cell, safe to
		// interleave with other stderr writers and to parse.
		opts.OnCellDone = func(cs bm.CellStatus) {
			status := "ok"
			switch {
			case cs.Skipped:
				status = "skip"
			case cs.Err != nil:
				status = "fail"
			case cs.Cached:
				status = "hit"
			}
			fmt.Fprintf(os.Stderr, "cell %3d/%d %-4s method=%q browser=%q wall=%v\n",
				cs.Done, cs.Total, status, cs.Method.String(), cs.Profile.Label(), cs.Wall.Round(10*time.Microsecond))
		}
	} else {
		opts.OnCellDone = func(cs bm.CellStatus) {
			fmt.Fprintf(os.Stderr, "\r  %d/%d cells", cs.Done, cs.Total)
			partialLine = cs.Done != cs.Total
			if cs.Done == cs.Total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	study, err := bm.RunStudy(opts)
	if partialLine {
		// The study ended (failure or cancellation) mid-counter: finish
		// the line so the error doesn't print on top of it.
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		return nil, err
	}
	s := study.Stats
	fmt.Fprintf(os.Stderr, "matrix done in %v (%d workers, %d cells, %d skipped, %d cached)\n",
		s.Wall.Round(time.Millisecond), s.Workers, s.CellsFinished, s.CellsSkipped, s.CellsCached)
	return study, nil
}

// writeMetricsSnapshot dumps the shared registry to path (JSON when the
// extension is .json, text otherwise); empty path is a no-op.
func writeMetricsSnapshot(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := error(nil)
	if strings.HasSuffix(path, ".json") {
		werr = metricsReg.WriteJSON(f)
	} else {
		werr = metricsReg.WriteText(f)
	}
	if werr != nil {
		f.Close()
		return werr
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote metrics snapshot to %s\n", path)
	return nil
}

// runSweep executes the -sweep mode: methods x browser profiles x fault
// profiles as one run against the content-addressed cache (a rerun on
// the same -cache-dir replays every finished cell, and processes running
// the same sweep on it at once share the cells), with warm/cold
// accounting on stderr and the summary table (plus optional full CSV) as
// the stdout artifact.
func runSweep(runs int, cacheDir string, sweepFaults []bm.FaultProfile, csvPath string) error {
	opts := bm.SweepOptions{
		Faults:   sweepFaults,
		Runs:     runs,
		BaseSeed: baseSeed,
		Workers:  workers,
		Dir:      cacheDir,
		Log:      func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
		Metrics:  metricsReg,
	}
	nFaults := len(sweepFaults)
	if nFaults == 0 {
		nFaults = len(bm.FaultProfiles())
	}
	fmt.Fprintf(os.Stderr, "sweeping %d methods x %d combos x %d fault profiles (%d runs/cell, cache %s)...\n",
		len(bm.ComparedMethods()), len(bm.Profiles()), nFaults, runs, cacheDir)
	done := 0
	partialLine := false
	if progressMode {
		opts.OnCell = func(fp bm.FaultProfile, cs bm.CellStatus) {
			status := "ok"
			switch {
			case cs.Skipped:
				status = "skip"
			case cs.Err != nil:
				status = "fail"
			case cs.Cached:
				status = "hit"
			}
			done++
			fmt.Fprintf(os.Stderr, "cell %4d %-4s faults=%q method=%q browser=%q wall=%v\n",
				done, status, fp.String(), cs.Method.String(), cs.Profile.Label(), cs.Wall.Round(10*time.Microsecond))
		}
	} else {
		opts.OnCell = func(fp bm.FaultProfile, cs bm.CellStatus) {
			done++
			fmt.Fprintf(os.Stderr, "\r  %d cells (%s)", done, fp)
			partialLine = true
		}
	}
	res, err := bm.RunSweep(context.Background(), opts)
	if partialLine {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sweep done in %v: %s\n", res.Stats.Wall.Round(time.Millisecond), res.StatsLine())
	// The report and the CSV are the byte surfaces that are identical
	// however many processes shared the sweep's cache dir.
	fmt.Println(res.Report())
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		if err := res.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote sweep samples to %s\n", csvPath)
	}
	return nil
}

func main() {
	var (
		table       = flag.Int("table", 0, "regenerate one table (1-4)")
		fig         = flag.Int("fig", 0, "regenerate one figure (3-5)")
		runs        = flag.Int("runs", 50, "repetitions per experiment cell")
		all         = flag.Bool("all", false, "regenerate every table and figure")
		recommend   = flag.Bool("recommend", false, "print the Section 5 recommendations")
		ascii       = flag.Bool("ascii", false, "render Figure 3 as terminal box-plot art")
		attribution = flag.Bool("attribution", false, "decompose overheads (Section 4 investigations)")
		impact      = flag.Bool("impact", false, "jitter/throughput/loss impact report")
		csvPath     = flag.String("csv", "", "also export the full study's samples as CSV to this file")
		mdPath      = flag.String("markdown", "", "write a Markdown report of the full study to this file")
		seed        = flag.Int64("seed", 0, "base seed for the deterministic simulation")
		nworkers    = flag.Int("workers", 0, "concurrent study cells (0 = one per CPU, 1 = sequential; results are identical)")
		tracePath   = flag.String("trace", "", "write the study as Chrome trace_event JSON to this file (open in chrome://tracing or Perfetto)")
		metricsPath = flag.String("metrics", "", "write a metrics snapshot to this file (.json extension = JSON, otherwise text)")
		cellstats   = flag.Bool("cellstats", false, "print the slowest study cells by host wall time")
		progressFl  = flag.Bool("progress", false, "structured per-cell progress lines on stderr (instead of the counter)")
		faultsFl    = flag.String("faults", "", "network-impairment profile for every study cell (clean, lossy1pct, burstywifi, congested); with -sweep, a comma-separated list")
		faultimpact = flag.Bool("faultimpact", false, "Δd degradation study: every method under every fault profile")
		cacheDirFl  = flag.String("cache-dir", "", "content-addressed cell cache directory (unchanged cells replay from disk byte-identically)")
		sweepFl     = flag.Bool("sweep", false, "run methods x browsers x fault profiles as one cache-backed sweep (requires -cache-dir; rerun to finish a killed sweep, run several at once to share it)")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file (go tool pprof)")
		memprofile  = flag.String("memprofile", "", "write an allocation profile to this file at exit (go tool pprof)")
	)
	flag.Parse()
	if err := startProfiles(*cpuprofile, *memprofile); err != nil {
		fmt.Fprintln(os.Stderr, "appraise:", err)
		os.Exit(2)
	}
	defer stopProfiles() // normal returns; exit() covers the error paths
	baseSeed = *seed
	workers = *nworkers
	tracing = *tracePath != ""
	if *metricsPath != "" {
		metricsReg = bm.NewMetrics()
	}
	progressMode = *progressFl

	if *sweepFl {
		// -faults may list several profiles, comma-separated (empty =
		// every built-in profile).
		if *cacheDirFl == "" {
			fmt.Fprintln(os.Stderr, "appraise: -sweep requires -cache-dir")
			exit(2)
		}
		var sweepFaults []bm.FaultProfile
		if *faultsFl != "" {
			for _, name := range strings.Split(*faultsFl, ",") {
				fp, err := bm.ParseFaultProfile(name)
				if err != nil {
					fmt.Fprintln(os.Stderr, "appraise:", err)
					exit(2)
				}
				sweepFaults = append(sweepFaults, fp)
			}
		}
		if err := runSweep(*runs, *cacheDirFl, sweepFaults, *csvPath); err != nil {
			fmt.Fprintln(os.Stderr, "appraise:", err)
			exit(1)
		}
		if err := writeMetricsSnapshot(*metricsPath); err != nil {
			fmt.Fprintln(os.Stderr, "appraise:", err)
			exit(1)
		}
		return
	}

	var err error
	faultProfile, err = bm.ParseFaultProfile(*faultsFl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "appraise:", err)
		exit(2)
	}
	if *cacheDirFl != "" {
		studyCache, err = bm.OpenSweepCache(*cacheDirFl, "")
		if err != nil {
			fmt.Fprintln(os.Stderr, "appraise:", err)
			exit(2)
		}
		studyCache.SetLog(func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) })
	}

	if !*all && *table == 0 && *fig == 0 && !*recommend && !*attribution && !*impact && *csvPath == "" && *mdPath == "" &&
		*tracePath == "" && *metricsPath == "" && !*cellstats && !*faultimpact {
		flag.Usage()
		exit(2)
	}
	if err := run(os.Stdout, *table, *fig, *runs, *all, *recommend, *ascii, *attribution, *impact,
		*csvPath, *mdPath, *tracePath, *metricsPath, *cellstats, *faultimpact); err != nil {
		fmt.Fprintln(os.Stderr, "appraise:", err)
		exit(1)
	}
}

// run regenerates the selected artifacts onto w (stdout in main). Files
// named by the path flags are written as side outputs, and progress goes
// to stderr.
func run(w io.Writer, table, fig, runs int, all, recommend, ascii, attribution, impact bool, csvPath, mdPath, tracePath, metricsPath string, cellstats, faultimpact bool) error {
	var study *bm.Study
	needStudy := all || fig == 3 || recommend || csvPath != "" || mdPath != "" ||
		tracePath != "" || metricsPath != "" || cellstats
	if needStudy {
		var err error
		study, err = runStudy(runs)
		if err != nil {
			return err
		}
	}

	if all || table == 1 {
		fmt.Fprintln(w, bm.Table1())
	}
	if all || table == 2 {
		fmt.Fprintln(w, bm.Table2())
	}
	if all || fig == 3 {
		if ascii {
			fmt.Fprintln(w, bm.Fig3ASCII(study, 72))
		} else {
			fmt.Fprintln(w, bm.Fig3(study))
		}
	}
	if all || fig == 4 {
		report, _, err := bm.Fig4(runs)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, report)
		if ascii {
			art, err := bm.Fig4ASCII(runs, 50)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, art)
		}
	}
	if all || fig == 5 {
		report, _ := bm.Fig5(12)
		fmt.Fprintln(w, report)
	}
	if all || table == 3 {
		report, _, err := bm.Table3(runs)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, report)
	}
	if all || table == 4 {
		report, _, err := bm.Table4(runs)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, report)
	}
	if all || recommend {
		if study == nil {
			var err error
			study, err = runStudy(runs)
			if err != nil {
				return err
			}
		}
		rec := bm.Recommend(study)
		fmt.Fprintln(w, "Section 5: practical considerations (derived from the study)")
		fmt.Fprintf(w, "  best method overall:   %v\n", rec.BestMethod)
		fmt.Fprintf(w, "  best plugin-free:      %v\n", rec.BestNative)
		oses := make([]string, 0, len(rec.BestBrowser))
		for os := range rec.BestBrowser {
			oses = append(oses, os)
		}
		sort.Strings(oses)
		for _, os := range oses {
			fmt.Fprintf(w, "  preferred browser on %s: %v\n", os, rec.BestBrowser[os])
		}
		fmt.Fprintf(w, "  avoid (uncalibratable): %v\n", rec.AvoidMethods)
		for _, n := range rec.Notes {
			fmt.Fprintf(w, "  note: %s\n", n)
		}
	}
	if all || attribution {
		// The two Section 4 investigations: Opera's Flash handshake and
		// the Java socket clock error.
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
				Timing: c.timing, Runs: runs, Warp: c.warp,
			})
			if err != nil {
				return err
			}
			fmt.Fprintln(w, report)
		}
	}
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		if err := study.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote study samples to %s\n", csvPath)
	}
	if mdPath != "" {
		if err := os.WriteFile(mdPath, []byte(bm.MarkdownReport(study)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote Markdown report to %s\n", mdPath)
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := study.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote Chrome trace to %s (open in chrome://tracing or Perfetto)\n", tracePath)
	}
	if err := writeMetricsSnapshot(metricsPath); err != nil {
		return err
	}
	if all || impact {
		report, err := bm.ImpactReport(bm.Firefox, bm.Windows, bm.NanoTime)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, report)
		sweep, err := bm.ServerOverheadReport(bm.Firefox, bm.Windows, bm.NanoTime, runs)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, sweep)
	}
	if faultimpact {
		fmt.Fprintf(os.Stderr, "running the fault-impact study (%d profiles x %d methods x %d runs)...\n",
			len(bm.FaultProfiles()), len(bm.ComparedMethods()), runs)
		fi, err := bm.RunFaultImpact(context.Background(), bm.FaultImpactOptions{
			Runs:     runs,
			BaseSeed: baseSeed,
			Workers:  workers,
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, fi.Report())
	}
	// Last so the regenerated artifacts above stay byte-identical with
	// and without the flag.
	if cellstats {
		fmt.Fprintln(w, bm.CellStatsTable(study, 15))
	}
	return nil
}
