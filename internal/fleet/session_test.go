package fleet

import (
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"github.com/browsermetric/browsermetric/internal/obs"
)

// TestSessionRecordIs16Bytes pins the per-session state at 16 bytes:
// the previous delay, the cached slot index, the idle-pass count and the
// has-last and live bits.
func TestSessionRecordIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(session{}); n != 16 {
		t.Fatalf("session record is %d bytes, want 16", n)
	}
}

// TestSessionCapHoldsUnderConcurrentAdmission races fresh sessions in
// different shards for the last places under the cap. Admission is one
// CAS on the live count, so exactly MaxSessions are admitted, every
// other attempt is rejected and counted, and Sessions never reads above
// the cap, not even while the admissions are in flight.
func TestSessionCapHoldsUnderConcurrentAdmission(t *testing.T) {
	const (
		limit     = 4
		workers   = 8
		perWorker = 4
		trials    = 2000
	)
	k := Key{Method: "tcp", Browser: "chrome", Region: "us"}
	for trial := 0; trial < trials; trial++ {
		m := obs.NewMetrics()
		r := New(Config{Shards: 64, MaxSessions: limit, Metrics: m})
		var admitted, rejected atomic.Int64
		var over atomic.Bool
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for j := 0; j < perWorker; j++ {
					if r.Observe(uint64(w*perWorker+j+1), k, 1, false) {
						admitted.Add(1)
					} else {
						rejected.Add(1)
					}
					if r.Sessions() > limit {
						over.Store(true)
					}
				}
			}(w)
		}
		close(start)
		wg.Wait()
		if over.Load() {
			t.Fatalf("trial %d: Sessions() read above the cap of %d during admission", trial, limit)
		}
		if got := admitted.Load() + rejected.Load(); got != workers*perWorker {
			t.Fatalf("trial %d: admitted %d + rejected %d = %d, attempted %d",
				trial, admitted.Load(), rejected.Load(), got, workers*perWorker)
		}
		if admitted.Load() != limit || r.Sessions() != limit {
			t.Fatalf("trial %d: admitted %d, Sessions() = %d, want %d", trial, admitted.Load(), r.Sessions(), limit)
		}
		r.FanIn()
		if got := m.Counter("fleet_sessions_rejected_total"); got != rejected.Load() {
			t.Fatalf("trial %d: rejected counter %d, rejected %d", trial, got, rejected.Load())
		}
		if got := m.Counter("fleet_sessions_started_total"); got != limit {
			t.Fatalf("trial %d: started counter %d, want %d", trial, got, limit)
		}
	}
}

// TestKeyChangeFoldsUnderGivenKey moves sessions between keys sample by
// sample. Each sample folds under the key it was given, and a session's
// jitter increment is taken against its own previous delay whatever key
// that went to, and lands on the new sample's key. One shard makes the
// sessions share slots.
func TestKeyChangeFoldsUnderGivenKey(t *testing.T) {
	r := New(Config{Shards: 1})
	kA := Key{Method: "http-get", Browser: "chrome", Region: "us"}
	kB := Key{Method: "http-get", Browser: "chrome", Region: "eu"}
	kC := Key{Method: "websocket", Browser: "firefox", Region: "us"}
	obsv := func(id uint64, k Key, v float64, lost bool) {
		t.Helper()
		if !r.Observe(id, k, v, lost) {
			t.Fatalf("session %d rejected below cap", id)
		}
	}
	// Session 1: A 10, B 20, A 30, B lost, B 50, C 56.
	// Session 2 interleaves on C and A with its own history.
	obsv(1, kA, 10, false)
	obsv(2, kC, 100, false)
	obsv(1, kB, 20, false)  // |20-10| = 10 under B
	obsv(2, kA, 104, false) // |104-100| = 4 under A
	obsv(1, kA, 30, false)  // |30-20| = 10 under A
	obsv(1, kB, 0, true)    // lost: counts under B, history kept
	obsv(1, kB, 50, false)  // |50-30| = 20 under B
	obsv(2, kC, 101, false) // |101-104| = 3 under C
	obsv(1, kC, 56, false)  // |56-50| = 6 under C
	r.FanIn()

	want := map[Key]Agg{
		kA: {Count: 3, JitterSum: 14, JitterN: 2},
		kB: {Count: 3, Lost: 1, JitterSum: 30, JitterN: 2},
		kC: {Count: 3, JitterSum: 9, JitterN: 2},
	}
	wantSum := map[Key]float64{kA: 144, kB: 70, kC: 257}
	if len(r.globals) != len(want) {
		t.Fatalf("%d keys, want %d", len(r.globals), len(want))
	}
	for k, w := range want {
		g := r.globals[k]
		if g == nil {
			t.Fatalf("key %v missing", k)
		}
		if g.Count != w.Count || g.Lost != w.Lost || g.JitterSum != w.JitterSum || g.JitterN != w.JitterN {
			t.Errorf("%v: count %d lost %d jitter %g/%d, want %d %d %g/%d",
				k, g.Count, g.Lost, g.JitterSum, g.JitterN, w.Count, w.Lost, w.JitterSum, w.JitterN)
		}
		if g.Sketch.Sum() != wantSum[k] || g.Sketch.Count() != w.Count-w.Lost {
			t.Errorf("%v: sketch sum %g over %d values, want %g over %d",
				k, g.Sketch.Sum(), g.Sketch.Count(), wantSum[k], w.Count-w.Lost)
		}
	}
	if n := len(r.shards[0].slots); n != 3 {
		t.Fatalf("shard holds %d slots for 3 keys", n)
	}
}

// TestEndedSessionReusesRecord ends sessions and admits others (and the
// same id again): each admission reuses a freed slab record instead of
// growing the slab, and starts with no jitter history.
func TestEndedSessionReusesRecord(t *testing.T) {
	r := New(Config{Shards: 1, MaxSessions: 2})
	k := Key{Method: "udp", Browser: "safari", Region: "ap"}
	sh := r.shards[0]
	r.Observe(1, k, 10, false)
	r.Observe(2, k, 10, false)
	r.End(1)
	if !r.Observe(3, k, 1000, false) { // a new id takes 1's record
		t.Fatal("freed place not reusable")
	}
	r.End(2)
	if !r.Observe(1, k, 500, false) { // an ended id comes back on 2's record
		t.Fatal("re-admission rejected")
	}
	if len(sh.slab) != 2 || len(sh.free) != 0 {
		t.Fatalf("slab %d records, %d free: want 2 and 0", len(sh.slab), len(sh.free))
	}
	g := r.FanIn()
	if g.Sessions != 2 {
		t.Fatalf("sessions = %d, want 2", g.Sessions)
	}
	if a := r.globals[k]; a.JitterN != 0 || a.JitterSum != 0 {
		t.Fatalf("re-admitted sessions inherited jitter history: %g over %d", a.JitterSum, a.JitterN)
	}
	// The reused records then build their own history.
	r.Observe(3, k, 1004, false)
	r.Observe(1, k, 497, false)
	r.FanIn()
	if a := r.globals[k]; a.JitterN != 2 || a.JitterSum != 7 {
		t.Fatalf("jitter = %g over %d, want 7 over 2", a.JitterSum, a.JitterN)
	}
}

// FuzzObserveSequence drives Observe, End and FanIn from fuzz bytes over
// at most 8 sessions and 4 keys and checks every key's cumulative
// Count, Lost, JitterN and JitterSum, its sketch's count and sum, the
// live session count and the cap against a plain map model. Delays are
// small integers, so every float sum is exact.
//
// The first byte picks the shard count (1-8) and the cap (1-8). Each
// following pair (a, c) is one step: a&7 picks the operation (0-5
// Observe, 6 End, 7 FanIn) and a>>3&7 the session; c&3 picks the key,
// c&4 marks the sample lost and c>>3 is the delay in ms.
func FuzzObserveSequence(f *testing.F) {
	f.Add([]byte{0x1d, 0x00, 0x08, 0x08, 0x11, 0x00, 0x22, 0x07, 0x00, 0x06, 0x00, 0x00, 0x30, 0x07, 0x00})
	f.Add([]byte{0x00, 0x00, 0x50, 0x08, 0x51, 0x00, 0x52, 0x06, 0x00, 0x08, 0x53, 0x07, 0x00})
	f.Add([]byte{0x07, 0x00, 0x10, 0x00, 0x21, 0x00, 0x32, 0x06, 0x00, 0x00, 0x47, 0x08, 0x06, 0x10, 0x00, 0x07, 0x00})
	f.Add([]byte{0x1e, 0x38, 0xff, 0x30, 0x04, 0x28, 0x9b, 0x20, 0x0c, 0x18, 0x1d, 0x10, 0xfe, 0x3e, 0x00, 0x38, 0x01, 0x3f, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		const maxSteps = 512
		limit := 1 + int(data[0]>>2)%8
		r := New(Config{Shards: 1 << (data[0] & 3), MaxSessions: limit})
		keys := [4]Key{
			{Method: "http-get", Browser: "chrome", Region: "us"},
			{Method: "http-get", Browser: "chrome", Region: "eu"},
			{Method: "udp", Browser: "opera", Region: "us"},
			{Method: "websocket", Browser: "safari", Region: "sa"},
		}
		type sessModel struct {
			last    float64
			hasLast bool
		}
		type aggModel struct {
			count, lost, jitterN uint64
			jitterSum, sum       float64
		}
		live := map[uint64]*sessModel{}
		var aggs [4]aggModel

		check := func(step int) {
			t.Helper()
			snap := r.FanIn()
			if snap.Sessions != len(live) {
				t.Fatalf("step %d: snapshot sessions %d, model %d", step, snap.Sessions, len(live))
			}
			n := 0
			for ki, w := range aggs {
				g := r.globals[keys[ki]]
				if w.count == 0 {
					if g != nil && g.Count != 0 {
						t.Fatalf("step %d: key %d holds %d samples, model none", step, ki, g.Count)
					}
					continue
				}
				n++
				if g == nil {
					t.Fatalf("step %d: key %d missing", step, ki)
				}
				if g.Count != w.count || g.Lost != w.lost || g.JitterN != w.jitterN || g.JitterSum != w.jitterSum {
					t.Fatalf("step %d: key %d count %d lost %d jitter %g/%d, model %d %d %g/%d", step, ki,
						g.Count, g.Lost, g.JitterSum, g.JitterN, w.count, w.lost, w.jitterSum, w.jitterN)
				}
				if g.Sketch.Count() != w.count-w.lost || g.Sketch.Sum() != w.sum {
					t.Fatalf("step %d: key %d sketch %d values sum %g, model %d sum %g", step, ki,
						g.Sketch.Count(), g.Sketch.Sum(), w.count-w.lost, w.sum)
				}
			}
			if len(snap.Keys) != n {
				t.Fatalf("step %d: snapshot has %d keys, model %d", step, len(snap.Keys), n)
			}
		}

		steps := 0
		for p := data[1:]; len(p) >= 2 && steps < maxSteps; p, steps = p[2:], steps+1 {
			a, c := p[0], p[1]
			id := uint64(a >> 3 & 7)
			switch op := a & 7; {
			case op == 6:
				r.End(id)
				delete(live, id)
			case op == 7:
				check(steps)
			default:
				ki := int(c & 3)
				lost := c&4 != 0
				v := float64(c >> 3)
				s := live[id]
				want := s != nil || len(live) < limit
				if got := r.Observe(id, keys[ki], v, lost); got != want {
					t.Fatalf("step %d: Observe(%d) = %v with %d live of %d, model %v", steps, id, got, len(live), limit, want)
				}
				if !want {
					break
				}
				if s == nil {
					s = &sessModel{}
					live[id] = s
				}
				m := &aggs[ki]
				m.count++
				if lost {
					m.lost++
					break
				}
				m.sum += v
				if s.hasLast {
					d := v - s.last
					if d < 0 {
						d = -d
					}
					m.jitterSum += d
					m.jitterN++
				}
				s.last, s.hasLast = v, true
			}
			if r.Sessions() != len(live) || r.Sessions() > limit {
				t.Fatalf("step %d: Sessions() = %d, model %d, cap %d", steps, r.Sessions(), len(live), limit)
			}
		}
		check(steps)
	})
}

// TestIdleSessionsExpireAtCap fills the session cap, then keeps sampling
// only the even half. Once the odd half has gone sessionIdleTicks fan-in
// passes without a sample, the pass ends exactly those sessions (counted
// in fleet_sessions_ended_total) and their places admit new sessions;
// one pass earlier, nothing has ended and the cap still rejects.
func TestIdleSessionsExpireAtCap(t *testing.T) {
	const limit = 64
	k := Key{Method: "ws", Browser: "firefox", Region: "eu"}
	m := obs.NewMetrics()
	r := New(Config{Shards: 4, MaxSessions: limit, Metrics: m})
	for id := uint64(1); id <= limit; id++ {
		if !r.Observe(id, k, 10, false) {
			t.Fatalf("session %d rejected below the cap", id)
		}
	}
	for pass := 1; pass <= sessionIdleTicks; pass++ {
		if pass == sessionIdleTicks {
			if r.Observe(limit+1, k, 10, false) {
				t.Fatal("a new session was admitted over the cap")
			}
		}
		for id := uint64(2); id <= limit; id += 2 {
			if !r.Observe(id, k, 10, false) {
				t.Fatalf("pass %d: active session %d rejected", pass, id)
			}
		}
		snap := r.FanIn()
		want := limit
		if pass == sessionIdleTicks {
			want = limit / 2
		}
		if snap.Sessions != want {
			t.Fatalf("after pass %d: %d sessions, want %d", pass, snap.Sessions, want)
		}
	}
	if got := m.Counter("fleet_sessions_ended_total"); got != limit/2 {
		t.Fatalf("fleet_sessions_ended_total = %d, want %d", got, limit/2)
	}
	for id := uint64(limit + 1); id <= limit+limit/2; id++ {
		if !r.Observe(id, k, 10, false) {
			t.Fatalf("new session %d rejected after the idle half ended", id)
		}
	}
	if r.Observe(1, k, 10, false) {
		t.Fatal("an ended session was re-admitted over the cap")
	}
	for id := uint64(2); id <= limit; id += 2 {
		if _, ok := r.shardFor(id).ids[id]; !ok {
			t.Fatalf("active session %d was ended", id)
		}
	}
}
