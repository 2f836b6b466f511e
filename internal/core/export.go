package core

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

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
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return s.WriteSampleRows(w)
}

// rowChunk is the size at which WriteSampleRows hands its row buffer to
// the writer.
const rowChunk = 64 << 10

// WriteSampleRows writes one SampleColumns row per sample of every
// executed cell, each opened by the lead fields, so an export that adds
// leading columns (a sweep's fault profile) formats samples identically.
// The bytes are those encoding/csv writes for the same records: the lead,
// method, browser and OS fields go through encoding/csv once per cell and
// prefix each of its rows, and the numeric fields, which never need
// quoting, are appended directly (durations by appendMs). Rows go to w in
// chunks of about rowChunk bytes; callers flush any header first.
func (s *Study) WriteSampleRows(w io.Writer, lead ...string) error {
	var pfx bytes.Buffer
	pw := csv.NewWriter(&pfx)
	rec := append([]string(nil), lead...)
	buf := make([]byte, 0, rowChunk+512)
	for i := range s.Cells {
		c := &s.Cells[i]
		if c.Skipped {
			continue
		}
		pfx.Reset()
		rec = append(rec[:len(lead)], c.Spec.Name, c.Profile.Browser.String(), c.Profile.OS.String())
		if err := pw.Write(rec); err != nil {
			return err
		}
		pw.Flush()
		prefix := pfx.Bytes()
		prefix = prefix[:len(prefix)-1] // the record's "\n"
		for _, smp := range c.Exp.Samples {
			buf = append(buf, prefix...)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(smp.Run), 10)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(smp.Round), 10)
			buf = append(buf, ',')
			buf = appendMs(buf, smp.BrowserRTT)
			buf = append(buf, ',')
			buf = appendMs(buf, smp.WireRTT)
			buf = append(buf, ',')
			buf = appendMs(buf, smp.Overhead)
			buf = append(buf, ',')
			buf = strconv.AppendBool(buf, smp.Handshake)
			buf = append(buf, '\n')
			if len(buf) >= rowChunk {
				if _, err := w.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
		}
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// msExactLimit bounds the |d| that appendMs formats in integers: below
// 2^50 ns a float64 ulp of the millisecond quotient stays under 1e-6 ms,
// the least distance from a rounding boundary when |d| mod 100 ≠ 50.
const msExactLimit = 1 << 50

// appendMs appends d in milliseconds with four decimals, exactly as
// strconv.FormatFloat(stats.Ms(d), 'f', 4, 64) writes it, including
// "-0.0000" for small negative durations. It rounds the integer
// nanoseconds to 100 ns units; the two cases where the float64 quotient
// may round otherwise (|d| mod 100 == 50, where it can land either side
// of the tie, and |d| ≥ msExactLimit) take FormatFloat itself.
func appendMs(dst []byte, d time.Duration) []byte {
	n := int64(d)
	if n < 0 {
		n = -n
	}
	if n >= msExactLimit || n < 0 || n%100 == 50 { // n < 0: math.MinInt64
		return strconv.AppendFloat(dst, stats.Ms(d), 'f', 4, 64)
	}
	if d < 0 {
		dst = append(dst, '-')
	}
	units := (n + 50) / 100
	dst = strconv.AppendInt(dst, units/10000, 10)
	frac := units % 10000
	return append(dst, '.',
		byte('0'+frac/1000), byte('0'+frac/100%10), byte('0'+frac/10%10), byte('0'+frac%10))
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
