package core

import (
	"bytes"
	"encoding/csv"
	"errors"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/methods"
	"github.com/browsermetric/browsermetric/internal/stats"
)

func smallStudy(t *testing.T) *Study {
	t.Helper()
	st, err := RunStudy(StudyOptions{
		Methods: []methods.Kind{methods.WebSocket, methods.JavaTCP},
		Runs:    4,
		Gap:     time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestWriteCSV(t *testing.T) {
	st := smallStudy(t)
	var buf bytes.Buffer
	if err := st.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// Header + (WS on 6 combos + JavaTCP on 8 combos) × 4 runs × 2 rounds.
	want := 1 + (6+8)*4*2
	if len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	if rows[0][0] != "method" || rows[0][8] != "handshake" {
		t.Fatalf("header = %v", rows[0])
	}
	// Every data row parses and satisfies Eq. 1.
	for _, r := range rows[1:] {
		browserMs, err1 := strconv.ParseFloat(r[5], 64)
		wireMs, err2 := strconv.ParseFloat(r[6], 64)
		ovMs, err3 := strconv.ParseFloat(r[7], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("unparseable row %v", r)
		}
		if d := browserMs - wireMs - ovMs; d > 0.001 || d < -0.001 {
			t.Fatalf("Eq.1 violated in CSV row %v", r)
		}
	}
}

func TestExperimentWriteCSV(t *testing.T) {
	exp := quickExp(t, methods.DOM, browser.Chrome, browser.Ubuntu, browser.NanoTime, 5)
	var buf bytes.Buffer
	st := &Study{Cells: []Cell{{Spec: methods.Get(exp.Config.Method), Profile: exp.Config.Profile, Exp: exp}}}
	if err := st.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "DOM") {
		t.Fatal("method name missing from experiment CSV")
	}
	lines := strings.Count(strings.TrimSpace(buf.String()), "\n")
	if lines != 10 { // 5 runs × 2 rounds (header adds the 11th line - 1)
		t.Fatalf("data lines = %d, want 10", lines)
	}
}

// wantMs is the oracle for appendMs: the float formatting the sample CSV
// has always used.
func wantMs(d time.Duration) string { return strconv.FormatFloat(stats.Ms(d), 'f', 4, 64) }

func checkAppendMs(t *testing.T, dst []byte, d time.Duration) []byte {
	t.Helper()
	dst = appendMs(dst[:0], d)
	if want := wantMs(d); string(dst) != want {
		t.Fatalf("appendMs(%d ns) = %q, FormatFloat gives %q", int64(d), dst, want)
	}
	return dst
}

// TestAppendMsMatchesFormatFloat pins appendMs to FormatFloat over every
// small duration, the ≡ 50 (mod 100) tie class, both sides of the
// large-magnitude fallback bound and random values over ±2^52 ns.
func TestAppendMsMatchesFormatFloat(t *testing.T) {
	var dst []byte
	for d := time.Duration(-100_000); d <= 100_000; d++ {
		dst = checkAppendMs(t, dst, d)
	}
	for k := int64(0); k < 100_000; k++ {
		for _, d := range []int64{k*100 + 50, -(k*100 + 50), k*1_000_003*100 + 50, -(k*1_000_003*100 + 50)} {
			dst = checkAppendMs(t, dst, time.Duration(d))
		}
	}
	for i := int64(-1000); i <= 1000; i++ {
		for _, d := range []int64{msExactLimit + i, -msExactLimit + i} {
			dst = checkAppendMs(t, dst, time.Duration(d))
		}
	}
	for _, d := range []int64{math.MaxInt64, math.MinInt64, math.MinInt64 + 1, 1 << 53, -(1 << 53)} {
		dst = checkAppendMs(t, dst, time.Duration(d))
	}
	n := 2_000_000
	if testing.Short() {
		n = 100_000
	}
	r := rand.New(rand.NewPCG(1, 2))
	for range n {
		d := r.Int64N(1<<53) - 1<<52
		dst = checkAppendMs(t, dst, time.Duration(d))
	}
}

// FuzzAppendMs checks appendMs against FormatFloat on arbitrary
// durations.
func FuzzAppendMs(f *testing.F) {
	for _, d := range []int64{0, 1, -1, 49, -49, 50, -50, 31_250, -31_250, 12_345_678,
		msExactLimit - 1, msExactLimit, -msExactLimit, math.MaxInt64, math.MinInt64} {
		f.Add(d)
	}
	f.Fuzz(func(t *testing.T, d int64) {
		if got, want := string(appendMs(nil, time.Duration(d))), wantMs(time.Duration(d)); got != want {
			t.Fatalf("appendMs(%d ns) = %q, FormatFloat gives %q", d, got, want)
		}
	})
}

// csvSampleRows renders the study's sample rows the reference way: one
// encoding/csv record per sample with FormatFloat durations.
func csvSampleRows(t *testing.T, st *Study, lead ...string) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	for _, c := range st.Cells {
		if c.Skipped {
			continue
		}
		for _, smp := range c.Exp.Samples {
			rec := append(append([]string(nil), lead...),
				c.Spec.Name, c.Profile.Browser.String(), c.Profile.OS.String(),
				strconv.Itoa(smp.Run), strconv.Itoa(smp.Round),
				wantMs(smp.BrowserRTT), wantMs(smp.WireRTT), wantMs(smp.Overhead),
				strconv.FormatBool(smp.Handshake))
			if err := cw.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSampleRowsMatchEncodingCSV pins the row writer to the bytes
// encoding/csv writes for the same records, with a method name and a
// lead field that need quoting (comma, double quote, leading space) and
// durations on the formatting edge cases.
func TestSampleRowsMatchEncodingCSV(t *testing.T) {
	st := smallStudy(t)
	st.Cells[0].Spec.Name = ` Web,Socket "raw"`
	st.Cells[0].Exp.Samples = append(st.Cells[0].Exp.Samples,
		Sample{Run: 99, Round: 1, BrowserRTT: 31_250, WireRTT: 31_300, Overhead: -50},
		Sample{Run: 100, Round: 2, BrowserRTT: -12_345_650, WireRTT: 1 << 51, Overhead: -49, Handshake: true})
	for _, lead := range [][]string{nil, {` lossy,"1%"`}, {""}} {
		var got bytes.Buffer
		if err := st.WriteSampleRows(&got, lead...); err != nil {
			t.Fatal(err)
		}
		if want := csvSampleRows(t, st, lead...); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("lead %q: rows differ from encoding/csv\n got: %.300s\nwant: %.300s", lead, got.Bytes(), want)
		}
	}
}

// failAfter accepts n bytes and then fails every write.
type failAfter struct{ n int }

var errWriteFailed = errors.New("write failed")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		k := f.n
		f.n = 0
		return k, errWriteFailed
	}
	f.n -= len(p)
	return len(p), nil
}

// TestWriteCSVReportsWriteError checks that a writer failing in the
// header or in the rows surfaces its error from Study.WriteCSV.
func TestWriteCSVReportsWriteError(t *testing.T) {
	st := smallStudy(t)
	var full bytes.Buffer
	if err := st.WriteCSV(&full); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 10, full.Len() / 2, full.Len() - 1} {
		if err := st.WriteCSV(&failAfter{n: k}); !errors.Is(err, errWriteFailed) {
			t.Errorf("writer failing after %d of %d bytes: err = %v", k, full.Len(), err)
		}
	}
	if err := st.WriteCSV(&failAfter{n: full.Len()}); err != nil {
		t.Errorf("writer taking exactly %d bytes: err = %v", full.Len(), err)
	}
}
