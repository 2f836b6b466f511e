package fleet

import (
	"math/rand"
	"testing"
)

// benchKeys is a realistic key population: 5 methods × 6 browsers × 4
// regions.
func benchKeys() []Key {
	methods := []string{"http-get", "http-post", "websocket", "tcp", "udp"}
	browsers := []string{"chrome", "firefox", "ie", "opera", "safari", "modern"}
	regions := []string{"us", "eu", "ap", "sa"}
	var keys []Key
	for _, m := range methods {
		for _, b := range browsers {
			for _, r := range regions {
				keys = append(keys, Key{Method: m, Browser: b, Region: r})
			}
		}
	}
	return keys
}

// BenchmarkObserve measures the ingest hot path: one sample folded into
// a shard aggregate under the shard lock. The (session, key) sequence
// repeats every benchObservePeriod samples, and one full period runs
// before the timer starts, so every session is admitted and every shard
// aggregate exists: the timed loop measures the steady state that
// TestObserveSteadyStateZeroAlloc pins, not first-sight admission.
func BenchmarkObserve(b *testing.B) {
	r := New(Config{Shards: 64})
	keys := benchKeys()
	rng := rand.New(rand.NewSource(1))
	observe := func(i int) {
		r.Observe(uint64(i%benchSessions), keys[i%len(keys)], 10+rng.Float64()*5, false)
	}
	for i := 0; i < benchObservePeriod; i++ {
		observe(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		observe(i)
	}
}

// BenchmarkObserveStableKey is BenchmarkObserve with each session keeping
// one key, as loadgen's and fleet-ingest's clients do: a sample finds
// its aggregate through the session's cached slot, with no key hash. In
// BenchmarkObserve every visit to a session changes its key, so that
// benchmark times the fallback through the shard's key map instead.
func BenchmarkObserveStableKey(b *testing.B) {
	r := New(Config{Shards: 64})
	keys := benchKeys()
	rng := rand.New(rand.NewSource(1))
	observe := func(i int) {
		id := i % benchSessions
		r.Observe(uint64(id), keys[id%len(keys)], 10+rng.Float64()*5, false)
	}
	for i := 0; i < benchObservePeriod; i++ {
		observe(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		observe(i)
	}
}

// benchSessions is BenchmarkObserve's session population, and
// benchObservePeriod the least common multiple of it and the 120-key
// population: the length of its (session, key) cycle.
const (
	benchSessions      = 10000
	benchObservePeriod = 30000
)

// BenchmarkFanIn measures one collector pass over 64 shards carrying one
// tick's worth of samples across the full key population. One untimed
// pass runs first: the first pass to see a (shard, key) slot creates
// its spare sketch, which is first-sight cost, not the steady state.
func BenchmarkFanIn(b *testing.B) {
	r := New(Config{Shards: 64})
	keys := benchKeys()
	rng := rand.New(rand.NewSource(2))
	fill := func() {
		for i := 0; i < 20000; i++ {
			r.Observe(uint64(i%10000), keys[i%len(keys)], 10+rng.Float64()*5, false)
		}
	}
	fill()
	r.FanIn()
	fill()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.FanIn()
		b.StopTimer()
		fill()
		b.StartTimer()
	}
}
