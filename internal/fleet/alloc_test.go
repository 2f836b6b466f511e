package fleet

import "testing"

// TestObserveSteadyStateZeroAlloc pins the ingest hot path at zero
// allocations per sample once a session and its aggregate exist: the
// shard maps, the aggregate's sketch buckets, and the sketch's buffered
// batch all reach capacity during warm-up, after which folding a sample
// is pure arithmetic under the shard lock. A regression here multiplies
// directly by fleet sample volume (100k sessions × rounds), so the guard
// is exact — not a ceiling.
func TestObserveSteadyStateZeroAlloc(t *testing.T) {
	r := New(Config{Shards: 64})
	k := Key{Method: "websocket", Browser: "chrome", Region: "eu"}
	// Warm-up: register the session, materialize the aggregate, and cycle
	// the sketch's internal buffer through several flushes so bucket
	// storage and buffer capacity stop growing.
	for i := 0; i < 4096; i++ {
		if !r.Observe(7, k, 12.5, false) {
			t.Fatal("warm-up Observe rejected")
		}
	}

	if allocs := testing.AllocsPerRun(2000, func() {
		r.Observe(7, k, 12.5, false)
	}); allocs != 0 {
		t.Errorf("steady-state Observe allocated %.2f objects/op, want 0", allocs)
	}
	// The loss path skips the sketch entirely, so it must be
	// allocation-free too.
	if allocs := testing.AllocsPerRun(2000, func() {
		r.Observe(7, k, 0, true)
	}); allocs != 0 {
		t.Errorf("steady-state lost-sample Observe allocated %.2f objects/op, want 0", allocs)
	}
}

// TestFanInAllocsIndependentOfShards pins the fan-in cost model: a
// steady-state pass allocates per key, not per (shard, key) delta, so
// the same samples fanned in from 64 shards allocate within a few
// objects of the same samples from 4. Pairwise merges that each build a
// fresh tuple list would add about 60 allocations per key at 64 shards.
func TestFanInAllocsIndependentOfShards(t *testing.T) {
	keys := benchKeys()[:12]
	const sessions = 6000 // 500 samples per key and tick
	tickAllocs := func(shards int) float64 {
		r := New(Config{Shards: shards})
		tick := 0
		pass := func() {
			tick++
			for id := 0; id < sessions; id++ {
				r.Observe(uint64(id), keys[id%len(keys)], float64((id*7+tick*13)%997)/8, false)
			}
			r.FanIn()
		}
		// Warm-up: admit the sessions and let every slot's two sketches,
		// the tick deltas and the pass scratch reach steady capacity.
		for i := 0; i < 8; i++ {
			pass()
		}
		return testing.AllocsPerRun(5, pass)
	}
	few, many := tickAllocs(4), tickAllocs(64)
	if many > few+16 {
		t.Fatalf("steady-state fan-in allocated %.0f objects at 64 shards, %.0f at 4: want within 16", many, few)
	}
	t.Logf("steady-state tick allocations: %.0f at 4 shards, %.0f at 64", few, many)
}
