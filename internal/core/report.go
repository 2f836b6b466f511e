package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/clock"
	"github.com/browsermetric/browsermetric/internal/methods"
	"github.com/browsermetric/browsermetric/internal/stats"
	"github.com/browsermetric/browsermetric/internal/testbed"
)

// Table1 renders the method taxonomy (paper Table 1).
func Table1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: browser-based network measurement methods\n")
	fmt.Fprintf(&b, "%-24s %-12s %-10s %-12s %-11s %-16s %s\n",
		"Method", "Technology", "Approach", "Availability", "SameOrigin", "Metrics", "Tools/Services")
	for _, s := range methods.All() {
		fmt.Fprintf(&b, "%-24s %-12s %-10s %-12s %-11s %-16s %s\n",
			s.Name, s.Technology, s.Transport, s.Availability, s.SameOrigin, s.Metrics, s.Tools)
	}
	return b.String()
}

// Table2 renders the browser/system matrix (paper Table 2).
func Table2() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: browser and system configurations\n")
	fmt.Fprintf(&b, "%-8s %-9s %-9s %-10s %-6s %s\n", "OS", "Browser", "Version", "Flash", "Java", "WebSocket")
	for _, p := range browser.Profiles() {
		ws := "yes"
		if !p.WebSocket {
			ws = "no"
		}
		fmt.Fprintf(&b, "%-8s %-9s %-9s %-10s %-6s %s\n",
			p.OS, p.Browser, p.Version, p.FlashVersion, p.JavaVersion, ws)
	}
	return b.String()
}

// Fig3 renders the Figure 3 box summaries: for each method, one row per
// browser×OS×round with the five-number summary of Δd (ms).
func Fig3(st *Study) string {
	var b strings.Builder
	sub := 'a'
	for _, spec := range methods.Compared() {
		cells := st.MethodCells(spec.Kind)
		if len(cells) == 0 {
			continue
		}
		fmt.Fprintf(&b, "Figure 3(%c): %s — delay overhead (ms)\n", sub, spec.Name)
		sub++
		fmt.Fprintf(&b, "  %-10s %-4s %8s %8s %8s %8s %8s %9s\n",
			"combo", "Δd", "whisLo", "q1", "median", "q3", "whisHi", "outliers")
		for _, c := range cells {
			for round := 1; round <= methods.Rounds; round++ {
				box := c.Exp.Box(round)
				fmt.Fprintf(&b, "  %-10s Δd%-2d %8.2f %8.2f %8.2f %8.2f %8.2f %9d\n",
					c.Profile.Label(), round,
					box.WhiskerLo, box.Q1, box.Median, box.Q3, box.WhiskerHi, len(box.Outliers))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Fig3ASCII renders Figure 3 as terminal box-plot art: one panel per
// method, one row per combo and round, on a shared millisecond scale.
func Fig3ASCII(st *Study, width int) string {
	var b strings.Builder
	sub := 'a'
	for _, spec := range methods.Compared() {
		cells := st.MethodCells(spec.Kind)
		if len(cells) == 0 {
			continue
		}
		fmt.Fprintf(&b, "Figure 3(%c): %s — Δd (ms)\n", sub, spec.Name)
		sub++
		var labels []string
		var boxes []stats.Box
		for _, c := range cells {
			for round := 1; round <= methods.Rounds; round++ {
				labels = append(labels, fmt.Sprintf("%s Δd%d", c.Profile.Label(), round))
				boxes = append(boxes, c.Exp.Box(round))
			}
		}
		b.WriteString(stats.RenderBoxes(labels, boxes, width))
		b.WriteByte('\n')
	}
	return b.String()
}

// ImpactReport runs the jitter/throughput/loss impact experiments for a
// representative method set on one profile and renders the comparison —
// the Section 2.2 claims made measurable.
func ImpactReport(prof *browser.Profile, timing browser.TimingFunc) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Derived-metric impact on %s (%v)\n", prof.Label(), timing)
	// One testbed serves every measurement, reset to each one's config.
	var (
		tb  *testbed.Testbed
		res *methods.Result
		err error
	)
	cfg := func(kind methods.Kind) Config { return Config{Method: kind, Profile: prof, Timing: timing} }

	fmt.Fprintf(&b, "\nJitter inflation (20-probe trains; wire jitter ~0 on the clean testbed):\n")
	for _, kind := range []methods.Kind{methods.XHRGet, methods.FlashGet, methods.WebSocket, methods.JavaTCP} {
		if !prof.Supports(methods.Get(kind).API) {
			continue
		}
		if res, tb, err = measure(tb, cfg(kind), methods.Train(20)); err != nil {
			return "", err
		}
		ji := jitterOf(res, tb)
		fmt.Fprintf(&b, "  %-26s browser %6.2f ms  wire %5.2f ms  inflation %6.2f ms\n",
			methods.Get(kind).Name, ji.BrowserJitter, ji.WireJitter, ji.Inflation())
	}

	fmt.Fprintf(&b, "\nRound-trip throughput bias (256 KiB transfer):\n")
	for _, kind := range []methods.Kind{methods.XHRGet, methods.WebSocket, methods.JavaTCP} {
		if !prof.Supports(methods.Get(kind).API) {
			continue
		}
		if res, tb, err = measure(tb, cfg(kind), methods.Transfer(256<<10)); err != nil {
			return "", err
		}
		ti, err := throughputOf(res, tb)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "  %-26s browser %7.2f Mbit/s  wire %7.2f Mbit/s  bias %5.1f%%\n",
			methods.Get(kind).Name, ti.BrowserMbps, ti.WireMbps, 100*ti.Bias())
	}

	fmt.Fprintf(&b, "\nLoss agreement (Java UDP, 100 probes, 10%% injected frame loss):\n")
	loss := cfg(methods.JavaUDP)
	loss.Testbed = testbed.Config{Seed: 4242, LossRate: 0.10}
	if res, tb, err = measure(tb, loss, methods.Train(100)); err != nil {
		return "", err
	}
	li := lossOf(res, tb)
	fmt.Fprintf(&b, "  tool-reported %.1f%%  capture-observed %.1f%%  (link dropped %d frames)\n",
		100*li.BrowserLoss, 100*li.WireLoss, li.LinkDropped)
	fmt.Fprintf(&b, "  -> delay overheads do not distort loss measurement (Section 2)\n")
	return b.String(), nil
}

// Fig4Row summarizes one CDF line of Figure 4.
type Fig4Row struct {
	Label  string
	Round  int
	P10    float64
	Median float64
	P90    float64
	Levels []float64 // discrete levels (ms), the granularity signature
}

// Fig4 runs the Figure 4 experiment — Java applet TCP socket on Windows
// with Date.getTime() — across the five browsers (a) and the appletviewer
// control (b), returning the rendered report and the rows.
func Fig4(runs int) (string, []Fig4Row, error) {
	if runs <= 0 {
		runs = 50
	}
	profiles := []*browser.Profile{
		browser.Lookup(browser.Chrome, browser.Windows),
		browser.Lookup(browser.Firefox, browser.Windows),
		browser.Lookup(browser.IE, browser.Windows),
		browser.Lookup(browser.Opera, browser.Windows),
		browser.Lookup(browser.Safari, browser.Windows),
		browser.AppletviewerProfile(),
	}
	exps, err := runArtifact(fig4Cells(runs, 100, profiles))
	if err != nil {
		return "", nil, err
	}
	var rows []Fig4Row
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: CDF of Δd, Java applet TCP socket on Windows (Date.getTime)\n")
	for i, p := range profiles {
		part := "(a) in browsers"
		if p.Browser == browser.Appletviewer {
			part = "(b) appletviewer control"
		}
		for round := 1; round <= methods.Rounds; round++ {
			sm := exps[i].roundSamples(round)
			cdf := sm.CDF()
			centers, counts := sm.Levels(3)
			var levels []float64
			for j, ctr := range centers {
				if counts[j] >= runs/20 {
					levels = append(levels, ctr)
				}
			}
			row := Fig4Row{
				Label:  p.Label(),
				Round:  round,
				P10:    cdf.Quantile(0.10),
				Median: cdf.Quantile(0.50),
				P90:    cdf.Quantile(0.90),
				Levels: levels,
			}
			rows = append(rows, row)
			fmt.Fprintf(&b, "  %-26s %-7s Δd%d  p10=%7.2f  median=%7.2f  p90=%7.2f  levels=%s\n",
				part, p.Label(), round, row.P10, row.Median, row.P90, fmtLevels(levels))
		}
	}
	return b.String(), rows, nil
}

// Fig4ASCII renders the Figure 4 CDFs as terminal decile bars for the
// headline environments (one browser plus the appletviewer control).
func Fig4ASCII(runs int, width int) (string, error) {
	if runs <= 0 {
		runs = 50
	}
	profiles := []*browser.Profile{browser.Lookup(browser.Firefox, browser.Windows), browser.AppletviewerProfile()}
	exps, err := runArtifact(fig4Cells(runs, 150, profiles))
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Figure 4 (ASCII): Δd CDFs, Java TCP socket on Windows, Date.getTime\n\n")
	for i, p := range profiles {
		for round := 1; round <= methods.Rounds; round++ {
			label := fmt.Sprintf("%s Δd%d", p.Label(), round)
			b.WriteString(stats.RenderCDF(label, exps[i].CDF(round), width))
			b.WriteByte('\n')
		}
	}
	return b.String(), nil
}

// fig4Cells declares the Figure 4 cells: the Java applet TCP socket with
// Date.getTime() on each profile, profile i seeded base+i.
func fig4Cells(runs int, base int64, profiles []*browser.Profile) []Config {
	cfgs := make([]Config, len(profiles))
	for i, p := range profiles {
		cfgs[i] = Config{Method: methods.JavaTCP, Profile: p, Timing: browser.GetTime, Runs: runs,
			Testbed: testbed.Config{Seed: base + int64(i)}}
	}
	return cfgs
}

// runArtifact runs an artifact's few short cells through RunCells on one
// worker (a pool's hand-offs and per-worker testbeds cost more CPU time
// than the overlap saves there) and returns their experiments in cell
// order.
func runArtifact(cfgs []Config) ([]*Experiment, error) {
	st, err := RunCells(context.TODO(), StudyOptions{Workers: 1}, cfgs)
	if err != nil {
		return nil, err
	}
	exps := make([]*Experiment, len(st.Cells))
	for i := range st.Cells {
		exps[i] = st.Cells[i].Exp
	}
	return exps, nil
}

func fmtLevels(ls []float64) string {
	if len(ls) == 0 {
		return "-"
	}
	parts := make([]string, len(ls))
	for i, l := range ls {
		parts[i] = fmt.Sprintf("%.1f", l)
	}
	return "{" + strings.Join(parts, ", ") + "}ms"
}

// Fig5 runs the timestamp-granularity probe of Figure 5 against the
// simulated Windows Date.getTime() clock at several points in the regime
// cycle, returning the report and the distinct granularities observed.
func Fig5(points int) (string, []time.Duration) {
	if points <= 0 {
		points = 12
	}
	tb := testbed.New(testbed.Config{Seed: 5})
	prof := browser.Lookup(browser.Chrome, browser.Windows)
	clk := prof.Clock(browser.APIJavaSocket, browser.GetTime, tb.Sim.Now)

	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: Date.getTime() granularity probe (Windows)\n")
	seen := map[time.Duration]bool{}
	var distinct []time.Duration
	step := 45 * time.Second
	for i := 0; i < points; i++ {
		g, ok := clock.Probe(clk, func() { tb.Advance(20 * time.Microsecond) }, 0)
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "  t=%8s  granularity = %v\n", tb.Sim.Now().Round(time.Second), g)
		if !seen[g] {
			seen[g] = true
			distinct = append(distinct, g)
		}
		tb.Advance(step)
	}
	sort.Slice(distinct, func(i, j int) bool { return distinct[i] < distinct[j] })
	fmt.Fprintf(&b, "  distinct granularities: %v\n", distinct)
	return b.String(), distinct
}

// Table3 runs the Flash GET/POST experiment on Opera for both systems and
// renders the median Δd1/Δd2 table (paper Table 3).
func Table3(runs int) (string, map[string][4]float64, error) {
	if runs <= 0 {
		runs = 50
	}
	out := map[string][4]float64{} // label -> [GET d1, GET d2, POST d1, POST d2]
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: median Δd1/Δd2 for the Flash HTTP methods in Opera (ms)\n")
	fmt.Fprintf(&b, "%-8s %10s %10s %10s %10s\n", "combo", "GET Δd1", "GET Δd2", "POST Δd1", "POST Δd2")
	oses := []browser.OS{browser.Windows, browser.Ubuntu}
	var cfgs []Config // per OS: GET, then POST
	for i, os := range oses {
		prof := browser.Lookup(browser.Opera, os)
		cfgs = append(cfgs,
			Config{Method: methods.FlashGet, Profile: prof, Timing: browser.GetTime, Runs: runs,
				Testbed: testbed.Config{Seed: int64(300 + i)}},
			Config{Method: methods.FlashPost, Profile: prof, Timing: browser.GetTime, Runs: runs,
				Testbed: testbed.Config{Seed: int64(310 + i)}})
	}
	exps, err := runArtifact(cfgs)
	if err != nil {
		return "", nil, err
	}
	for i := range oses {
		get, post := exps[2*i], exps[2*i+1]
		label := get.Config.Profile.Label()
		vals := [4]float64{
			get.MedianOverhead(1), get.MedianOverhead(2),
			post.MedianOverhead(1), post.MedianOverhead(2),
		}
		out[label] = vals
		fmt.Fprintf(&b, "%-8s %10.1f %10.1f %10.1f %10.1f\n", label, vals[0], vals[1], vals[2], vals[3])
	}
	return b.String(), out, nil
}

// Table4Cell is one mean ± CI entry of Table 4.
type Table4Cell struct {
	Mean, Half float64
}

// Table4 reruns the Java applet methods on Windows with System.nanoTime()
// and renders mean ± 95% CI per browser and method (paper Table 4).
// Safari runs with the Oracle JRE, as the paper did for this table.
func Table4(runs int) (string, map[string]map[string][2]Table4Cell, error) {
	if runs <= 0 {
		runs = 50
	}
	kinds := []methods.Kind{methods.JavaGet, methods.JavaPost, methods.JavaTCP}
	names := []string{"GET", "POST", "Socket"}
	browsers := []browser.Name{browser.Chrome, browser.Firefox, browser.IE, browser.Opera, browser.Safari}

	out := map[string]map[string][2]Table4Cell{}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: Java applet overheads on Windows with System.nanoTime() (mean ± 95%% CI, ms)\n")
	fmt.Fprintf(&b, "%-9s", "Browser")
	for _, n := range names {
		fmt.Fprintf(&b, " %11s Δd1 %11s Δd2", n, n)
	}
	b.WriteByte('\n')
	var cfgs []Config // browser-major, then method
	for bi, name := range browsers {
		prof := browser.Lookup(name, browser.Windows)
		if name == browser.Safari {
			prof = prof.WithOracleJRE()
		}
		for ki, kind := range kinds {
			cfgs = append(cfgs, Config{Method: kind, Profile: prof, Timing: browser.NanoTime, Runs: runs,
				Testbed: testbed.Config{Seed: int64(400 + 10*bi + ki)}})
		}
	}
	exps, err := runArtifact(cfgs)
	if err != nil {
		return "", nil, err
	}
	for bi, name := range browsers {
		row := map[string][2]Table4Cell{}
		fmt.Fprintf(&b, "%-9s", name)
		for ki := range kinds {
			var cells [2]Table4Cell
			for round := 1; round <= 2; round++ {
				m, h := exps[bi*len(kinds)+ki].MeanCI(round)
				cells[round-1] = Table4Cell{Mean: m, Half: h}
				fmt.Fprintf(&b, "  %6.2f±%-7.2f", m, h)
			}
			row[names[ki]] = cells
		}
		out[name.String()] = row
		b.WriteByte('\n')
	}
	return b.String(), out, nil
}
