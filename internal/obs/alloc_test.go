package obs

import "testing"

// TestInternedLabelZeroAlloc is the obs-layer allocation regression guard
// for metrics labels: after the first sighting, rendering the same
// (name, labels) combination must return the interned string without
// allocating, no matter how often the hot path formats it.
func TestInternedLabelZeroAlloc(t *testing.T) {
	warm := func() string {
		return L("probe_rtt_ms", "method", "xhr", "browser", "chrome")
	}
	first := warm()
	allocs := testing.AllocsPerRun(200, func() {
		if warm() != first {
			t.Fatal("interned label changed")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm L() allocated %.2f/op, want 0", allocs)
	}
}

// TestInternReturnsStableString checks the table maps equal content to the
// identical string, including through the byte-rendered fast path.
func TestInternReturnsStableString(t *testing.T) {
	a := internBytes([]byte("stage_send_ms"))
	b := internBytes([]byte("stage_" + "send_ms"))
	if a != b {
		t.Fatalf("internBytes not idempotent: %q vs %q", a, b)
	}
	l1 := L("m", "k", "v")
	l2 := L("m", "k", "v")
	if l1 != l2 {
		t.Fatalf("L not stable: %q vs %q", l1, l2)
	}
}

// TestTracerSpanLowAlloc guards the span slab: recording a span with a
// handful of attributes must cost far less than one allocation per span
// (one slab chunk per slabChunk spans plus amortized index growth).
func TestTracerSpanLowAlloc(t *testing.T) {
	tr := NewTracer()
	// Warm up so the spans index has grown past its first doublings.
	for i := 0; i < 256; i++ {
		tr.Begin("warm").Done()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s := tr.Begin("probe")
		s.Int("round", 1)
		s.Bool("handshake", true)
		s.Done()
	})
	if allocs > 0.25 {
		t.Fatalf("traced span allocated %.3f/op, want amortized < 0.25", allocs)
	}
}

// TestSpanSlabPointersStable verifies the slab never invalidates
// previously returned *Span values when it starts a new chunk.
func TestSpanSlabPointersStable(t *testing.T) {
	tr := NewTracer()
	var spans []*Span
	for i := 0; i < slabChunk*3+5; i++ {
		spans = append(spans, tr.Point("p").Int("i", int64(i)))
	}
	for i, s := range spans {
		if got := s.GetInt("i"); got != int64(i) {
			t.Fatalf("span %d corrupted: attr i = %d", i, got)
		}
	}
}
