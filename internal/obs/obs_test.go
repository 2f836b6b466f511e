package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestSpanLifecycle(t *testing.T) {
	tr := NewTracer()
	var now time.Duration
	tr.Bind(func() time.Duration { return now })

	now = 10 * time.Millisecond
	s := tr.Begin("round").Int("round", 2).Bool("new_conn", true)
	if !s.Open() {
		t.Fatal("span should be open")
	}
	if s.Duration() != 0 {
		t.Fatal("open span duration should be zero")
	}
	now = 35 * time.Millisecond
	s.Done()
	if s.Open() {
		t.Fatal("span should be closed")
	}
	if got := s.Duration(); got != 25*time.Millisecond {
		t.Fatalf("duration = %v, want 25ms", got)
	}
	s.Done() // second Done must not move End
	if got := s.Duration(); got != 25*time.Millisecond {
		t.Fatalf("duration after double Done = %v", got)
	}

	if got := s.GetInt("round"); got != 2 {
		t.Fatalf("GetInt(round) = %d", got)
	}
	if v, ok := s.Get("new_conn"); !ok || v != true {
		t.Fatalf("Get(new_conn) = %v, %v", v, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("Get(missing) should report absent")
	}
}

func TestTracerPointAndFind(t *testing.T) {
	tr := NewTracer()
	var now time.Duration
	tr.Bind(func() time.Duration { return now })

	now = time.Second
	tr.Point("clock-read").Str("at", "tBs").Dur("err", -3*time.Millisecond)
	now = 2 * time.Second
	tr.Point("clock-read").Str("at", "tBr")
	tr.Begin("request").Done()

	if got := len(tr.Spans()); got != 3 {
		t.Fatalf("Spans() len = %d, want 3", got)
	}
	if got := len(tr.Find("clock-read")); got != 2 {
		t.Fatalf("Find(clock-read) len = %d, want 2", got)
	}
	s := tr.FindOne("clock-read", Attr{Key: "at", Value: "tBs"})
	if s == nil || s.Start != time.Second {
		t.Fatalf("FindOne tBs = %+v", s)
	}
	if got := s.GetDur("err"); got != -3*time.Millisecond {
		t.Fatalf("GetDur(err) = %v", got)
	}
	if tr.FindOne("clock-read", Attr{Key: "at", Value: "nope"}) != nil {
		t.Fatal("FindOne should miss on wrong attr value")
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	s := tr.Begin("x").Str("k", "v").Int("n", 1).Bool("b", true).Dur("d", time.Second)
	s.Done()
	if s != nil || tr.Point("y") != nil || tr.Spans() != nil || tr.Find("x") != nil || tr.FindOne("x") != nil {
		t.Fatal("nil tracer methods must return nil")
	}
	if s.Open() || s.Duration() != 0 || s.GetDur("d") != 0 || s.GetInt("n") != 0 {
		t.Fatal("nil span accessors must return zero values")
	}
	tr.Bind(func() time.Duration { return 0 }) // must not panic
}

// TestNilTracerZeroAlloc is the zero-allocation guarantee from the issue:
// fully instrumented hot-path code with observability disabled must not
// allocate.
func TestNilTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	var m *Metrics
	allocs := testing.AllocsPerRun(1000, func() {
		s := tr.Begin("round")
		s.Int("round", 1).Bool("new_conn", true).Dur("cost", time.Millisecond)
		tr.Point("clock-read").Str("at", "tBs")
		s.Done()
		m.Add("tcp_segments_sent", 1)
		m.Observe("stage_send_path_ms", 0.5)
		m.ObserveDur("delta_d_ms", 3*time.Millisecond)
		m.Set("workers", 4)
	})
	if allocs != 0 {
		t.Fatalf("disabled observability allocated %.1f per op, want 0", allocs)
	}
}

func TestMetricsCountersGaugesHistograms(t *testing.T) {
	m := NewMetrics()
	m.Add("frames", 3)
	m.Add("frames", 2)
	m.Set("workers", 8)
	m.Observe("lat_ms", 0.02)
	m.Observe("lat_ms", 7)
	m.ObserveDur("lat_ms", 20*time.Second)

	if got := m.Counter("frames"); got != 5 {
		t.Fatalf("Counter(frames) = %d", got)
	}
	if got := m.Gauge("workers"); got != 8 {
		t.Fatalf("Gauge(workers) = %g", got)
	}
	if got := m.SketchCount("lat_ms"); got != 3 {
		t.Fatalf("SketchCount(lat_ms) = %d, want 3", got)
	}
	// Three observations stay exact in the sketch: the extremes and the
	// tail read back the observed values themselves.
	for _, c := range []struct{ q, want float64 }{{0, 0.02}, {0.99, 20000}, {1, 20000}} {
		if got := m.SketchQuantile("lat_ms", c.q); got != c.want {
			t.Fatalf("SketchQuantile(lat_ms, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if m.SketchCount("missing") != 0 {
		t.Fatal("SketchCount(missing) should be 0")
	}
}

func TestMetricsMergeCommutative(t *testing.T) {
	build := func(order []int) *Metrics {
		parts := []*Metrics{NewMetrics(), NewMetrics(), NewMetrics()}
		// Dyadic observation values: float sums are exact in any order,
		// so the snapshots must match bit-for-bit.
		parts[0].Add("c", 1)
		parts[0].Observe("h", 0.25)
		parts[1].Add("c", 10)
		parts[1].Observe("h", 40)
		parts[2].Add("c", 100)
		parts[2].Observe("h", 0.25)
		total := NewMetrics()
		for _, i := range order {
			total.Merge(parts[i])
		}
		return total
	}
	a, b := build([]int{0, 1, 2}), build([]int{2, 0, 1})
	var bufA, bufB bytes.Buffer
	if err := a.WriteJSON(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSON(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatalf("merge not order-independent:\n%s\nvs\n%s", bufA.String(), bufB.String())
	}
	if got := a.Counter("c"); got != 111 {
		t.Fatalf("merged counter = %d", got)
	}
}

func TestMetricsNilSafe(t *testing.T) {
	var m *Metrics
	if m.Enabled() {
		t.Fatal("nil metrics reports enabled")
	}
	m.Add("c", 1)
	m.Set("g", 2)
	m.Observe("h", 3)
	m.ObserveDur("h", time.Second)
	m.Merge(NewMetrics())
	NewMetrics().Merge(m)
	if m.Counter("c") != 0 || m.Gauge("g") != 0 || m.SketchCount("h") != 0 {
		t.Fatal("nil metrics accessors must return zeros")
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsWriteTextAndJSON(t *testing.T) {
	m := NewMetrics()
	m.Add("tcp_segments_sent", 42)
	m.Set("workers", 4)
	m.Observe("stage_send_path_ms", 0.08)

	var txt bytes.Buffer
	if err := m.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"tcp_segments_sent 42", "workers 4", "stage_send_path_ms count=1"} {
		if !strings.Contains(txt.String(), want) {
			t.Fatalf("text snapshot missing %q:\n%s", want, txt.String())
		}
	}

	var js bytes.Buffer
	if err := m.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Counters map[string]int64 `json:"counters"`
		Sketches map[string]struct {
			Count     uint64 `json:"count"`
			Quantiles []struct {
				Q float64 `json:"q"`
				V float64 `json:"v"`
			} `json:"quantiles"`
		} `json:"sketches"`
	}
	if err := json.Unmarshal(js.Bytes(), &decoded); err != nil {
		t.Fatalf("metrics JSON invalid: %v\n%s", err, js.String())
	}
	if decoded.Counters["tcp_segments_sent"] != 42 {
		t.Fatalf("decoded counter = %d", decoded.Counters["tcp_segments_sent"])
	}
	sk := decoded.Sketches["stage_send_path_ms"]
	if sk.Count != 1 || len(sk.Quantiles) != len(DefaultSketchTargets) {
		t.Fatalf("decoded sketch = %+v", sk)
	}
	for _, qv := range sk.Quantiles {
		if qv.V != 0.08 {
			t.Fatalf("decoded sketch quantile %g = %g, want the one observation 0.08", qv.Q, qv.V)
		}
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer()
	var now time.Duration
	tr.Bind(func() time.Duration { return now })

	now = 5 * time.Millisecond
	run := tr.Begin("run").Str("method", "Flash GET")
	now = 6 * time.Millisecond
	hs := tr.Begin("handshake").Bool("new_conn", true)
	now = 8 * time.Millisecond
	hs.Done()
	tr.Point("clock-read").Str("at", "tBr").Dur("err", -time.Millisecond)
	open := tr.Begin("dangling")
	_ = open // never Done: must export as an instant with open marker
	now = 9 * time.Millisecond
	run.Done()

	var buf bytes.Buffer
	err := WriteChromeTrace(&buf, []Thread{{ID: 1, Name: "Flash GET / Opera (W)", Spans: tr.Spans()}})
	if err != nil {
		t.Fatal(err)
	}

	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON invalid: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 5 { // metadata + run + handshake + clock-read + dangling
		t.Fatalf("got %d events, want 5:\n%s", len(doc.TraceEvents), buf.String())
	}

	byName := map[string]int{}
	for i, ev := range doc.TraceEvents {
		byName[ev.Name] = i
		if ev.PID != 1 {
			t.Fatalf("event %q pid = %d, want 1", ev.Name, ev.PID)
		}
	}
	meta := doc.TraceEvents[byName["thread_name"]]
	if meta.Phase != "M" || meta.Args["name"] != "Flash GET / Opera (W)" {
		t.Fatalf("metadata event = %+v", meta)
	}
	h := doc.TraceEvents[byName["handshake"]]
	if h.Phase != "X" || h.TS != 6000 || h.Dur != 2000 {
		t.Fatalf("handshake event = %+v (want X, ts=6000µs, dur=2000µs)", h)
	}
	if h.Args["new_conn"] != true {
		t.Fatalf("handshake args = %+v", h.Args)
	}
	cr := doc.TraceEvents[byName["clock-read"]]
	if cr.Phase != "i" || cr.Args["err_ms"] != -1.0 {
		t.Fatalf("clock-read event = %+v", cr)
	}
	dg := doc.TraceEvents[byName["dangling"]]
	if dg.Phase != "i" || dg.Args["open"] != true {
		t.Fatalf("dangling span event = %+v", dg)
	}
}

// The trace export must be deterministic byte-for-byte for identical
// span content (map args marshal with sorted keys).
func TestWriteChromeTraceDeterministic(t *testing.T) {
	render := func() []byte {
		tr := NewTracer()
		tr.Bind(func() time.Duration { return time.Millisecond })
		tr.Begin("round").Int("round", 1).Str("method", "XHR GET").Bool("new_conn", false).Done()
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, []Thread{{ID: 1, Name: "cell", Spans: tr.Spans()}}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(render(), render()) {
		t.Fatal("trace export not deterministic")
	}
}
