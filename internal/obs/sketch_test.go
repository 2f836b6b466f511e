package obs

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactRankBand returns the [lo, hi] rank range (0-based, inclusive-
// exclusive-ish) the value occupies in the sorted exact data: lo is the
// number of samples strictly below v, hi the number of samples <= v.
func exactRankBand(sorted []float64, v float64) (lo, hi int) {
	lo = sort.SearchFloat64s(sorted, v)
	hi = sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
	return lo, hi
}

// checkErrorBound observes data into a fresh default sketch and asserts
// that every target quantile's estimate has true rank within
// q·n ± ε·n (plus one sample of slack for boundary ties).
func checkErrorBound(t *testing.T, name string, data []float64) {
	t.Helper()
	sk := NewSketch()
	for _, v := range data {
		sk.Observe(v)
	}
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	n := float64(len(data))
	for _, target := range sk.Targets() {
		est := sk.Quantile(target.Quantile)
		lo, hi := exactRankBand(sorted, est)
		wantLo := (target.Quantile-target.Epsilon)*n - 1
		wantHi := (target.Quantile+target.Epsilon)*n + 1
		if float64(hi) < wantLo || float64(lo) > wantHi {
			t.Errorf("%s: q=%g est=%g has rank band [%d,%d], want within [%.0f,%.0f] (ε=%g)",
				name, target.Quantile, est, lo, hi, wantLo, wantHi, target.Epsilon)
		}
	}
	if sk.Count() != uint64(len(data)) {
		t.Errorf("%s: count = %d, want %d", name, sk.Count(), len(data))
	}
}

func TestSketchErrorBoundUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]float64, 100000)
	for i := range data {
		data[i] = rng.Float64() * 100
	}
	checkErrorBound(t, "uniform", data)
}

func TestSketchErrorBoundExponential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := make([]float64, 100000)
	for i := range data {
		data[i] = rng.ExpFloat64() * 10 // heavy right tail, like RTTs
	}
	checkErrorBound(t, "exponential", data)
}

// javaTimerBimodal synthesizes the paper's Fig. 4/5 shape: the Java
// timer on Windows quantizes to ~15.6 ms granules, so Δd samples pile up
// near 0 and near 15.6 with an empty valley between.
func javaTimerBimodal(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, n)
	for i := range data {
		if rng.Intn(2) == 0 {
			data[i] = math.Abs(rng.NormFloat64()*0.05 + 0.2)
		} else {
			data[i] = rng.NormFloat64()*0.1 + 15.8
		}
	}
	return data
}

func TestSketchErrorBoundBimodalJavaTimer(t *testing.T) {
	data := javaTimerBimodal(100000, 3)
	checkErrorBound(t, "bimodal", data)

	// The median must sit in one of the modes, never in the empty valley
	// (1, 15) ms — a midpoint-interpolating estimator would fail this.
	sk := NewSketch()
	for _, v := range data {
		sk.Observe(v)
	}
	if p50 := sk.Quantile(0.5); p50 > 1 && p50 < 15 {
		t.Fatalf("p50 = %g ms sits in the empty valley between the modes", p50)
	}
}

func TestSketchBoundedMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sk := NewSketch()
	for i := 0; i < 100000; i++ {
		sk.Observe(rng.ExpFloat64() * 10)
	}
	// CKMS with the default targets holds a few hundred tuples; 2000 is
	// a generous ceiling that still proves sublinear growth (2% of n).
	if sk.Len() > 2000 {
		t.Fatalf("sketch holds %d tuples after 1e5 observations, want <= 2000", sk.Len())
	}
}

func TestSketchEmptyAndEdges(t *testing.T) {
	sk := NewSketch()
	if !math.IsNaN(sk.Quantile(0.5)) {
		t.Fatal("empty sketch quantile should be NaN")
	}
	sk.Observe(7)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := sk.Quantile(q); got != 7 {
			t.Fatalf("single-sample quantile(%g) = %g, want 7", q, got)
		}
	}
	if sk.Min() != 7 || sk.Max() != 7 || sk.Sum() != 7 || sk.Count() != 1 {
		t.Fatalf("stats = min %g max %g sum %g count %d", sk.Min(), sk.Max(), sk.Sum(), sk.Count())
	}
}

func TestSketchDeterministicQueries(t *testing.T) {
	// The determinism contract: an identical sequence of observes and
	// queries produces identical answers (a query flushes the buffer, so
	// it is part of the sequence), and re-querying an unchanged sketch
	// never changes later answers — that is what makes two scrapes of an
	// unchanged registry byte-identical.
	a, b := NewSketch(), NewSketch()
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, 20000)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	for i, v := range vals {
		a.Observe(v)
		b.Observe(v)
		if i%3000 == 0 {
			if av, bv := a.Quantile(0.99), b.Quantile(0.99); av != bv {
				t.Fatalf("mid-stream quantile diverged: %g vs %g", av, bv)
			}
		}
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		if av, bv := a.Quantile(q), b.Quantile(q); av != bv {
			t.Fatalf("quantile(%g): %g != %g for identical sequences", q, av, bv)
		}
		if first, second := a.Quantile(q), a.Quantile(q); first != second {
			t.Fatalf("re-query changed answer: %g then %g", first, second)
		}
	}
}

func TestSketchMergeStaysBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a, b := NewSketch(), NewSketch()
	var all []float64
	for i := 0; i < 50000; i++ {
		v := rng.ExpFloat64()
		all = append(all, v)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	a.Merge(b)
	if a.Count() != 50000 {
		t.Fatalf("merged count = %d", a.Count())
	}
	sort.Float64s(all)
	n := float64(len(all))
	for _, target := range a.Targets() {
		est := a.Quantile(target.Quantile)
		lo, hi := exactRankBand(all, est)
		// Merging re-inserts compressed tuples, so allow the summed
		// error of both sketches.
		eps := 2*target.Epsilon + 0.005
		wantLo := (target.Quantile-eps)*n - 1
		wantHi := (target.Quantile+eps)*n + 1
		if float64(hi) < wantLo || float64(lo) > wantHi {
			t.Errorf("merged q=%g est=%g rank [%d,%d] outside [%.0f,%.0f]",
				target.Quantile, est, lo, hi, wantLo, wantHi)
		}
	}
}

func TestMetricsSketchAPI(t *testing.T) {
	m := NewMetrics()
	key := L("live_probe_rtt_ms", "method", "http-get")
	for i := 0; i < 1000; i++ {
		m.ObserveSketch(key, float64(i))
	}
	if c := m.SketchCount(key); c != 1000 {
		t.Fatalf("sketch count = %d", c)
	}
	p50 := m.SketchQuantile(key, 0.5)
	if p50 < 480 || p50 > 520 {
		t.Fatalf("p50 = %g, want ~500 within ±1%% rank error", p50)
	}
	if !math.IsNaN(m.SketchQuantile("absent", 0.5)) {
		t.Fatal("absent sketch quantile should be NaN")
	}

	// Merge folds sketches across registries (export-time path).
	o := NewMetrics()
	for i := 1000; i < 2000; i++ {
		o.ObserveSketch(key, float64(i))
	}
	m.Merge(o)
	if c := m.SketchCount(key); c != 2000 {
		t.Fatalf("merged sketch count = %d", c)
	}
}

// TestNilMetricsSketchZeroAlloc pins the PR 2 invariant for the new
// backend: disabled wall-clock instrumentation is allocation-free.
func TestNilMetricsSketchZeroAlloc(t *testing.T) {
	var m *Metrics
	allocs := testing.AllocsPerRun(200, func() {
		m.ObserveSketch("x", 1.5)
		m.SketchDur("x", 12345)
		_ = m.SketchQuantile("x", 0.5)
		_ = m.SketchCount("x")
		m.SetHelp("x", "help")
	})
	if allocs != 0 {
		t.Fatalf("nil-Metrics sketch ops allocated %.1f/op, want 0", allocs)
	}
}

func TestLabelKeyCanonical(t *testing.T) {
	a := L("bm_requests_total", "service", "http", "endpoint", "/probe")
	b := L("bm_requests_total", "endpoint", "/probe", "service", "http")
	if a != b {
		t.Fatalf("label order not canonical: %q vs %q", a, b)
	}
	want := `bm_requests_total{endpoint="/probe",service="http"}`
	if a != want {
		t.Fatalf("key = %q, want %q", a, want)
	}
	if got := L("plain"); got != "plain" {
		t.Fatalf("no-label key = %q", got)
	}
}

// Len returns the number of stored tuples plus buffered observations:
// the sketch's memory footprint, which the bounded-memory tests pin.
func (s *Sketch) Len() int { return len(s.samples) + len(s.buf) }
