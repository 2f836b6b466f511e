package core

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"github.com/browsermetric/browsermetric/internal/methods"
	"github.com/browsermetric/browsermetric/internal/stats"
)

// SampleColumns names the columns of one sample row, the unit of
// evidence behind the paper's box plots and CDFs.
var SampleColumns = []string{
	"method", "browser", "os", "run", "round",
	"browser_rtt_ms", "wire_rtt_ms", "overhead_ms", "handshake",
}

// WriteCSV exports every sample of the study as CSV for external plotting
// (the paper's figures are box plots/CDFs over exactly these rows), with
// the SampleColumns header.
func (s *Study) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(SampleColumns); err != nil {
		return err
	}
	if err := s.WriteSampleRows(cw); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// WriteSampleRows writes one SampleColumns row per sample of every
// executed cell, each opened by the lead fields, so an export that adds
// leading columns (a sweep's fault profile) formats samples identically.
func (s *Study) WriteSampleRows(cw *csv.Writer, lead ...string) error {
	rec := append([]string(nil), lead...)
	for i := range s.Cells {
		c := &s.Cells[i]
		if c.Skipped {
			continue
		}
		for _, smp := range c.Exp.Samples {
			rec = append(rec[:len(lead)],
				c.Spec.Name,
				c.Profile.Browser.String(),
				c.Profile.OS.String(),
				strconv.Itoa(smp.Run),
				strconv.Itoa(smp.Round),
				fmtMs(stats.Ms(smp.BrowserRTT)),
				fmtMs(stats.Ms(smp.WireRTT)),
				fmtMs(stats.Ms(smp.Overhead)),
				strconv.FormatBool(smp.Handshake),
			)
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteCSV exports one experiment's samples with the same columns.
func (e *Experiment) WriteCSV(w io.Writer) error {
	st := &Study{Cells: []Cell{{
		Spec:    methods.Get(e.Config.Method),
		Profile: e.Config.Profile,
		Exp:     e,
	}}}
	return st.WriteCSV(w)
}

func fmtMs(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

// SummaryCSV writes one row per (method, combo, round) with the box
// statistics — the exact numbers behind each Figure 3 glyph.
func (s *Study) SummaryCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"method", "combo", "round", "n",
		"min_ms", "whisker_lo_ms", "q1_ms", "median_ms", "q3_ms", "whisker_hi_ms", "max_ms", "outliers",
	}); err != nil {
		return err
	}
	for i := range s.Cells {
		c := &s.Cells[i]
		if c.Skipped {
			continue
		}
		for round := 1; round <= 2; round++ {
			b := c.Exp.Box(round)
			rec := []string{
				c.Spec.Name,
				c.Profile.Label(),
				strconv.Itoa(round),
				strconv.Itoa(b.N),
				fmtMs(b.Min), fmtMs(b.WhiskerLo), fmtMs(b.Q1), fmtMs(b.Median),
				fmtMs(b.Q3), fmtMs(b.WhiskerHi), fmtMs(b.Max),
				strconv.Itoa(len(b.Outliers)),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("core: summary csv: %w", err)
	}
	return nil
}
