package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	bm "github.com/browsermetric/browsermetric"
	"github.com/browsermetric/browsermetric/internal/arena"
	"github.com/browsermetric/browsermetric/internal/obs"
	"github.com/browsermetric/browsermetric/internal/stats"
)

// paperRuns is the runs per cell of the committed artifact set.
const paperRuns = 50

// paperBench regenerates the `appraise -all` artifact set in process,
// in CLI order, through the root-package API. One op is one full set.
type paperBench struct {
	seed   int64
	n      int
	traced bool   // a --trace 1 run: re-drive the study cells after every op
	want   []byte // the committed artifact set (seed 0) or the warm-up op's output
	out    bytes.Buffer
	study  *bm.Study

	cp    cellProbe
	arena *arena.Arena
}

func newPaperBench(root string, seed int64, n int, traced bool) (*paperBench, error) {
	b := &paperBench{seed: seed, n: n, traced: traced, cp: newCellProbe(), arena: arena.New(0)}
	if seed == 0 {
		want, err := os.ReadFile(filepath.Join(root, "artifacts", "appraise_all.txt"))
		if err != nil {
			return nil, fmt.Errorf("paper-regen: %w", err)
		}
		b.want = want
	}
	return b, nil
}

func (b *paperBench) ops() int { return b.n }

func (b *paperBench) setUp() error {
	b.out.Reset()
	if err := b.regenerate(nil); err != nil {
		return err
	}
	if b.seed != 0 || b.want == nil {
		b.want = append(b.want[:0], b.out.Bytes()...)
	}
	return nil
}

func (b *paperBench) tearDown() {}

func (b *paperBench) op(_ int, sp *spanRec) (float64, error) {
	b.out.Reset()
	if err := b.regenerate(sp); err != nil {
		return 0, err
	}
	return 1, nil
}

// check compares the op's output with the reference bytes. On a traced
// run it also re-drives every study cell call by call and requires
// RunContext's samples back exactly; after a traced op the re-drive
// records spans and counters.
func (b *paperBench) check(_ int, sp *spanRec) error {
	if !bytes.Equal(b.out.Bytes(), b.want) {
		return fmt.Errorf("artifact set differs from the reference (%d vs %d bytes)", b.out.Len(), len(b.want))
	}
	if !b.traced {
		return nil
	}
	var (
		cp  *cellProbe
		reg *obs.Metrics
	)
	if sp != nil {
		cp, reg = &b.cp, b.cp.reg
	}
	for i := range b.study.Cells {
		c := &b.study.Cells[i]
		if c.Skipped {
			continue
		}
		exp, err := redriveCell(c.Exp.Config, b.arena, sp, cp, reg)
		if err != nil {
			return fmt.Errorf("re-drive %s / %s: %w", c.Spec.Name, c.Profile.Label(), err)
		}
		if err := sameSamples(exp, c.Exp); err != nil {
			return fmt.Errorf("re-drive %s / %s: %w", c.Spec.Name, c.Profile.Label(), err)
		}
		s := sp.begin("stats.summary")
		for round := 1; round <= 2; round++ {
			ms := exp.Overheads(round)
			_ = stats.NewBox(ms)
			_, _ = stats.MeanCI95(ms)
			_ = stats.NewCDF(ms)
		}
		sp.end(s)
	}
	return nil
}

func (b *paperBench) layers(l *ledger, out map[string]float64) {
	cellLayers(l, &b.cp, out)
	out["stats.summary_us.p50"] = l.p("stats.summary", 0.5, time.Microsecond)
	for _, a := range paperArtifacts {
		out["core.artifact_ms."+a] = l.p("core.artifact."+a, 0.5, time.Millisecond)
	}
}

// paperArtifacts names the artifact spans of one regeneration.
var paperArtifacts = []string{"fig3", "fig4", "fig5", "table3", "table4", "attribution", "impact", "server"}

// regenerate writes the artifact set to b.out exactly as `appraise -all`
// prints it to stdout, with the workload seed as the Fig-3 base seed and
// the study scheduler on one worker.
func (b *paperBench) regenerate(sp *spanRec) error {
	w := &b.out
	s := sp.begin("core.artifact.fig3")
	study, err := bm.RunStudy(bm.StudyOptions{Runs: paperRuns, BaseSeed: b.seed, Workers: 1})
	if err != nil {
		sp.end(s)
		return err
	}
	b.study = study
	fmt.Fprintln(w, bm.Table1())
	fmt.Fprintln(w, bm.Table2())
	fmt.Fprintln(w, bm.Fig3(study))
	sp.end(s)

	s = sp.begin("core.artifact.fig4")
	report, _, err := bm.Fig4(paperRuns)
	sp.end(s)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, report)

	s = sp.begin("core.artifact.fig5")
	report, _ = bm.Fig5(12)
	sp.end(s)
	fmt.Fprintln(w, report)

	s = sp.begin("core.artifact.table3")
	report, _, err = bm.Table3(paperRuns)
	sp.end(s)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, report)

	s = sp.begin("core.artifact.table4")
	report, _, err = bm.Table4(paperRuns)
	sp.end(s)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, report)

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

	s = sp.begin("core.artifact.attribution")
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
			Timing: c.timing, Runs: paperRuns, Warp: c.warp,
		})
		if err != nil {
			sp.end(s)
			return err
		}
		fmt.Fprintln(w, report)
	}
	sp.end(s)

	s = sp.begin("core.artifact.impact")
	report, err = bm.ImpactReport(bm.Firefox, bm.Windows, bm.NanoTime)
	sp.end(s)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, report)

	s = sp.begin("core.artifact.server")
	report, err = bm.ServerOverheadReport(bm.Firefox, bm.Windows, bm.NanoTime, paperRuns)
	sp.end(s)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, report)
	return nil
}
