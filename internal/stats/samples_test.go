package stats

import (
	"testing"
	"time"
)

func TestSamplesMatchesPackageFunctions(t *testing.T) {
	vals := []float64{9, 1, 4, 7, 2, 8, 3, 6, 5, 10}
	s := NewSamples(vals)
	if got, want := s.Median(), Median(vals); got != want {
		t.Errorf("Median = %v, want %v", got, want)
	}
	if got, want := s.Quantile(0.9), Quantile(vals, 0.9); got != want {
		t.Errorf("Quantile(0.9) = %v, want %v", got, want)
	}
	if got, want := s.Box(), NewBox(vals); got.Median != want.Median || got.Q1 != want.Q1 || got.Q3 != want.Q3 {
		t.Errorf("Box = %+v, want %+v", got, want)
	}
}

func TestNewSamplesDoesNotMutateInput(t *testing.T) {
	vals := []float64{3, 1, 2}
	NewSamples(vals)
	if vals[0] != 3 || vals[1] != 1 || vals[2] != 2 {
		t.Fatalf("NewSamples mutated its input: %v", vals)
	}
}

// TestSamplesDerivedStatsZeroAlloc is the stats-layer allocation
// regression guard: once a Samples is sealed, every scalar statistic must
// run without allocating — this is what lets the experiment layer derive
// Box, quantiles and the rest from one cached sorted view.
func TestSamplesDerivedStatsZeroAlloc(t *testing.T) {
	vals := make([]float64, 101)
	for i := range vals {
		vals[i] = float64((i * 37) % 101)
	}
	s := NewSamples(vals)
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		sink += s.Median() + s.Quantile(0.9)
		sink += s.Box().Median
	})
	if allocs != 0 {
		t.Fatalf("sealed Samples statistics allocated %.2f/op, want 0", allocs)
	}
	_ = sink
}

// TestDurationsToMsIntoReusesBuffer guards the destination-buffer export
// variants: converting into a pre-sized buffer must not allocate.
func TestDurationsToMsIntoReusesBuffer(t *testing.T) {
	ds := []time.Duration{time.Millisecond, 2 * time.Millisecond}
	buf := make([]float64, 0, len(ds))
	allocs := testing.AllocsPerRun(100, func() {
		buf = DurationsToMsInto(buf[:0], ds)
	})
	if allocs != 0 {
		t.Fatalf("DurationsToMsInto allocated %.2f/op, want 0", allocs)
	}
	if len(buf) != 2 || buf[0] != 1 || buf[1] != 2 {
		t.Fatalf("DurationsToMsInto = %v", buf)
	}
}
