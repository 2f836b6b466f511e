package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/methods"
	"github.com/browsermetric/browsermetric/internal/obs"
)

// TestTracedSpanAttributionSumsToOverhead is the accounting identity the
// tracer exists to expose: for every compared method, each sample's Δd
// must equal the sum of its traced browser-side stages,
//
//	Δd = send-path + handshake (new-conn rounds) + event-dispatch
//	     + (err(tBr) − err(tBs)),
//
// within one clock granule. The server-delay span is deliberately absent
// from the sum: server time is seen by both the browser and the capture,
// so it cancels in Eq. 1. If an instrumentation change double-counts a
// stage or drops one, this test pins down which method and round.
func TestTracedSpanAttributionSumsToOverhead(t *testing.T) {
	prof := browser.Lookup(browser.Opera, browser.Windows) // supports all ten methods
	for _, spec := range methods.Compared() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			tr := obs.NewTracer()
			exp, err := Run(Config{
				Method:  spec.Kind,
				Profile: prof,
				Timing:  browser.GetTime,
				Runs:    3,
				Gap:     time.Second,
				Tracer:  tr,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range exp.Samples {
				run, round := int64(s.Run), int64(s.Round)
				at := func(name string) []obs.Attr {
					return []obs.Attr{
						{Key: "run", Value: run},
						{Key: "round", Value: round},
					}
				}
				tbs := tr.FindOne("clock-read", append(at(""), obs.Attr{Key: "at", Value: "tBs"})...)
				tbr := tr.FindOne("clock-read", append(at(""), obs.Attr{Key: "at", Value: "tBr"})...)
				send := tr.FindOne("send-path", at("")...)
				dispatch := tr.FindOne("event-dispatch", at("")...)
				if tbs == nil || tbr == nil || send == nil || dispatch == nil {
					t.Fatalf("run %d round %d: missing spans (tBs=%v tBr=%v send=%v dispatch=%v)",
						s.Run, s.Round, tbs != nil, tbr != nil, send != nil, dispatch != nil)
				}

				sum := send.Duration() + dispatch.Duration() +
					tbr.GetDur("err") - tbs.GetDur("err")
				hs := tr.FindOne("handshake", at("")...)
				if s.Handshake {
					if hs == nil {
						t.Fatalf("run %d round %d: Handshake sample without handshake span", s.Run, s.Round)
					}
					sum += hs.Duration()
				} else if hs != nil {
					t.Fatalf("run %d round %d: handshake span on a warm round", s.Run, s.Round)
				}

				// One granule of tolerance, as the clock reads themselves
				// carry their exact error the identity should be exact; the
				// granule bounds any residual stamping asymmetry.
				tol := tbs.GetDur("granularity")
				if g := tbr.GetDur("granularity"); g > tol {
					tol = g
				}
				diff := s.Overhead - sum
				if diff < 0 {
					diff = -diff
				}
				if diff > tol {
					t.Errorf("run %d round %d: Δd = %v but spans sum to %v (diff %v > granule %v)",
						s.Run, s.Round, s.Overhead, sum, diff, tol)
				}
			}
		})
	}
}

// TestRunStudyDeterminismWithTracing extends the headline equivalence
// guarantee to the observability layer: a traced, metered, parallel study
// must export byte-identical CSVs and reports to an untraced sequential
// one. Tracing only observes — it never schedules events or draws random
// numbers — and this is the test that keeps it that way.
func TestRunStudyDeterminismWithTracing(t *testing.T) {
	checkNoGoroutineLeak(t)
	base := StudyOptions{Runs: 3, Gap: time.Second, BaseSeed: 42}

	plain := base
	plain.Workers = 1
	st, err := RunStudy(plain)
	if err != nil {
		t.Fatal(err)
	}
	want := exportBytes(t, st)

	traced := base
	traced.Workers = 4
	traced.Tracing = true
	traced.Metrics = obs.NewMetrics()
	tst, err := RunStudy(traced)
	if err != nil {
		t.Fatal(err)
	}
	if got := exportBytes(t, tst); !bytes.Equal(got, want) {
		t.Errorf("traced parallel study exports differ from plain sequential (%d vs %d bytes)",
			len(got), len(want))
	}

	for i := range tst.Cells {
		c := &tst.Cells[i]
		if c.Skipped {
			continue
		}
		if c.Trace == nil || len(c.Trace.Spans()) == 0 {
			t.Errorf("cell %d (%s / %s): no spans recorded", i, c.Spec.Name, c.Profile.Label())
		}
		if c.Metrics == nil {
			t.Errorf("cell %d: nil Metrics registry", i)
		}
	}
	if n := traced.Metrics.Counter("study_cells_finished"); n == 0 {
		t.Error("study metrics missing study_cells_finished")
	}
}

// TestStudyMetricsIndependentOfWorkers: the merged study registry is the
// same at any worker count once its host-time series are left out. The
// scheduler merges the cells' registries in matrix order, and sketch
// merges and float sums depend on that order, so a merge in completion
// order would show up here as differing sketch tuples or sums.
func TestStudyMetricsIndependentOfWorkers(t *testing.T) {
	hostTime := []string{"study_cell_wall_ms", "study_wall_ms", "study_workers"}
	snapshot := func(workers int) []byte {
		m := obs.NewMetrics()
		if _, err := RunStudy(StudyOptions{Runs: 3, Gap: time.Second, BaseSeed: 42, Workers: workers, Metrics: m}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		var snap map[string]map[string]json.RawMessage
		if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
			t.Fatal(err)
		}
		for _, section := range snap {
			for _, k := range hostTime {
				delete(section, k)
			}
		}
		for _, k := range []string{"delta_d_ms", "stage_send_path_ms", "stage_event_dispatch_ms", "stage_handshake_ms"} {
			if _, ok := snap["sketches"][k]; !ok {
				t.Fatalf("workers=%d: snapshot has no %s sketch", workers, k)
			}
		}
		out, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	one, four := snapshot(1), snapshot(4)
	if !bytes.Equal(one, four) {
		t.Fatalf("study registry differs between 1 and 4 workers:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", one, four)
	}
}

// TestWriteChromeTraceOperaFlashHandshake is the acceptance check for the
// trace exporter: a small Opera × Flash GET study must produce valid
// Chrome trace_event JSON containing a handshake span for the Δd1 round —
// the Table 3 mechanism (Opera's Flash plugin opens a fresh TCP connection
// for the first GET, absorbing a handshake into the measured delay).
func TestWriteChromeTraceOperaFlashHandshake(t *testing.T) {
	st, err := RunStudy(StudyOptions{
		Methods:  []methods.Kind{methods.FlashGet},
		Profiles: []*browser.Profile{browser.Lookup(browser.Opera, browser.Windows)},
		Runs:     2,
		Gap:      time.Second,
		Tracing:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cell := &st.Cells[0]
	if cell.Exp == nil || !cell.Exp.Samples[0].Handshake {
		t.Fatal("Opera Flash GET Δd1 should open a fresh connection")
	}

	var buf bytes.Buffer
	if err := st.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}

	var handshakes, threadNames int
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Name == "handshake" && ev.Ph == "X":
			handshakes++
			if ev.Dur <= 0 {
				t.Errorf("handshake event with dur %v µs, want > 0", ev.Dur)
			}
			if round, ok := ev.Args["round"].(float64); !ok || round != 1 {
				t.Errorf("handshake args[round] = %v, want 1 (Δd1)", ev.Args["round"])
			}
		case ev.Ph == "M" && ev.Name == "thread_name":
			threadNames++
			if name, _ := ev.Args["name"].(string); !strings.Contains(name, "Flash GET") {
				t.Errorf("thread name %q should identify the cell", name)
			}
		}
	}
	// Opera Flash GET is PolicyNewOnFirst: one fresh connection per run,
	// always on round 1.
	if handshakes != 2 {
		t.Errorf("got %d handshake events, want 2 (one per run)", handshakes)
	}
	if threadNames != 1 {
		t.Errorf("got %d thread_name metadata events, want 1", threadNames)
	}
}

// TestCellStatsTable checks ordering, truncation, and the exclusion of
// never-started cells from the -cellstats table.
func TestCellStatsTable(t *testing.T) {
	prof := browser.Lookup(browser.Chrome, browser.Ubuntu)
	st := &Study{
		Cells: []Cell{
			{Spec: methods.Get(methods.XHRGet), Profile: prof},
			{Spec: methods.Get(methods.DOM), Profile: prof},
			{Spec: methods.Get(methods.WebSocket), Profile: prof},
		},
		Stats: StudyStats{
			Workers:       2,
			CellsFinished: 2,
			Wall:          20 * time.Millisecond,
			CellWall:      []time.Duration{5 * time.Millisecond, 0, 9 * time.Millisecond},
		},
	}
	out := CellStatsTable(st, 10)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header + column row + two cells (cell 1 never ran)
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "2 of 2 run, 2 workers") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[2], "WebSocket") || !strings.HasPrefix(strings.Fields(lines[2])[0], "2") {
		t.Errorf("slowest cell should lead: %q", lines[2])
	}
	if !strings.Contains(lines[3], "XHR GET") {
		t.Errorf("second row should be the 5ms cell: %q", lines[3])
	}
	if strings.Contains(out, "DOM") {
		t.Errorf("never-started cell listed:\n%s", out)
	}

	if top := CellStatsTable(st, 1); strings.Contains(top, "XHR GET") {
		t.Errorf("n=1 should truncate to the slowest cell:\n%s", top)
	}
}
