package eventsim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrder(t *testing.T) {
	s := New(1)
	var got []int
	s.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	s.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	s.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30*time.Millisecond {
		t.Fatalf("Now = %v, want 30ms", s.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5*time.Millisecond, func() { got = append(got, i) })
	}
	s.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant events fired out of order: %v", got)
		}
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	s := New(1)
	s.Advance(time.Second)
	fired := false
	s.Schedule(-time.Hour, func() { fired = true })
	s.Run()
	if !fired {
		t.Fatal("negative-delay event never fired")
	}
	if s.Now() != time.Second {
		t.Fatalf("Now = %v, want 1s", s.Now())
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	e := s.Schedule(time.Millisecond, func() { fired = true })
	e.Cancel()
	s.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestCancelOneOfMany(t *testing.T) {
	s := New(1)
	var got []int
	e1 := s.Schedule(1*time.Millisecond, func() { got = append(got, 1) })
	s.Schedule(2*time.Millisecond, func() { got = append(got, 2) })
	e1.Cancel()
	s.Run()
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("got %v, want [2]", got)
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	var times []time.Duration
	s.Schedule(time.Millisecond, func() {
		times = append(times, s.Now())
		s.Schedule(time.Millisecond, func() {
			times = append(times, s.Now())
		})
	})
	s.Run()
	if len(times) != 2 || times[0] != time.Millisecond || times[1] != 2*time.Millisecond {
		t.Fatalf("times = %v", times)
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		s.Schedule(time.Duration(i)*time.Second, func() { count++ })
	}
	s.RunUntil(5 * time.Second)
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if s.Now() != 5*time.Second {
		t.Fatalf("Now = %v, want 5s", s.Now())
	}
	s.Run()
	if count != 10 {
		t.Fatalf("count after Run = %d, want 10", count)
	}
}

func TestAdvanceMovesClockPastEvents(t *testing.T) {
	s := New(1)
	fired := false
	s.Schedule(3*time.Second, func() { fired = true })
	s.Advance(10 * time.Second)
	if !fired {
		t.Fatal("event within Advance window did not fire")
	}
	if s.Now() != 10*time.Second {
		t.Fatalf("Now = %v, want 10s", s.Now())
	}
}

func TestAdvanceZero(t *testing.T) {
	s := New(1)
	s.Advance(0)
	if s.Now() != 0 {
		t.Fatalf("Now = %v, want 0", s.Now())
	}
}

func TestStepEmpty(t *testing.T) {
	s := New(1)
	if s.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestFiredAndPending(t *testing.T) {
	s := New(1)
	s.Schedule(1, func() {})
	s.Schedule(2, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}
	s.Run()
	if s.Fired() != 2 {
		t.Fatalf("Fired = %d, want 2", s.Fired())
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending after Run = %d, want 0", s.Pending())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	trace := func() []time.Duration {
		s := New(42)
		var out []time.Duration
		var tick func()
		tick = func() {
			out = append(out, s.Now())
			if len(out) < 50 {
				jitter := time.Duration(s.Rand().Int63n(int64(time.Millisecond)))
				s.Schedule(jitter, tick)
			}
		}
		s.Schedule(0, tick)
		s.Run()
		return out
	}
	a, b := trace(), trace()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRunawayLimitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected runaway panic")
		}
	}()
	s := New(1)
	s.Limit = 100
	var tick func()
	tick = func() { s.Schedule(time.Microsecond, tick) } // never terminates
	s.Schedule(0, tick)
	s.Run()
}

func TestCancelDuringFire(t *testing.T) {
	// An event canceled by an earlier same-instant event must not fire.
	s := New(1)
	fired := false
	var e2 Event
	s.Schedule(time.Millisecond, func() { e2.Cancel() })
	e2 = s.Schedule(time.Millisecond, func() { fired = true })
	s.Run()
	if fired {
		t.Fatal("canceled-in-flight event fired")
	}
}

func TestSchedulePanicsOnNilFn(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil fn")
		}
	}()
	New(1).Schedule(0, nil)
}

// Property: events always fire in non-decreasing time order regardless of
// the scheduling pattern.
func TestQuickMonotoneFiring(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New(7)
		var fireTimes []time.Duration
		for _, d := range delays {
			s.Schedule(time.Duration(d)*time.Microsecond, func() {
				fireTimes = append(fireTimes, s.Now())
			})
		}
		s.Run()
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i] < fireTimes[i-1] {
				return false
			}
		}
		return len(fireTimes) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCancelThenFireOrdering(t *testing.T) {
	// Canceling one of several same-instant events must not disturb the
	// FIFO order of the survivors, including events scheduled after the
	// cancellation that reuse the recycled record.
	s := New(1)
	var got []int
	s.Schedule(time.Millisecond, func() { got = append(got, 1) })
	e2 := s.Schedule(time.Millisecond, func() { got = append(got, 2) })
	s.Schedule(time.Millisecond, func() { got = append(got, 3) })
	e2.Cancel()
	s.Schedule(time.Millisecond, func() { got = append(got, 4) })
	s.Run()
	want := []int{1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

func TestStaleHandleCancelIsNoop(t *testing.T) {
	// After an event fires, its pooled record may back a later event; the
	// stale handle must not cancel it.
	s := New(1)
	first := s.Schedule(time.Millisecond, func() {})
	s.Run()
	fired := false
	s.Schedule(time.Millisecond, func() { fired = true })
	first.Cancel() // stale: generation moved on
	s.Run()
	if !fired {
		t.Fatal("stale Cancel leaked onto a recycled event")
	}
}

func TestZeroEventHandle(t *testing.T) {
	var e Event
	e.Cancel() // must not panic
}

func TestSameInstantFIFOAcrossHeapRebuilds(t *testing.T) {
	// Interleave same-instant events with earlier ones and partial Steps so
	// the 4-ary heap repeatedly rebuilds; the same-instant cohort must
	// still fire in scheduling order.
	s := New(1)
	var got []int
	for i := 0; i < 64; i++ {
		i := i
		s.Schedule(10*time.Millisecond, func() { got = append(got, i) })
		if i%3 == 0 {
			s.Schedule(time.Duration(i)*time.Microsecond, func() {})
		}
		if i%5 == 0 {
			s.Step() // pop an early event mid-build, forcing sift-downs
		}
	}
	s.Run()
	if len(got) != 64 {
		t.Fatalf("fired %d same-instant events, want 64", len(got))
	}
	for i := 0; i < 64; i++ {
		if got[i] != i {
			t.Fatalf("same-instant events fired out of order at %d: %v", i, got[:i+1])
		}
	}
}

func TestStepOnDrainedQueue(t *testing.T) {
	s := New(1)
	s.Schedule(time.Millisecond, func() {})
	s.Run()
	if s.Step() {
		t.Fatal("Step on drained queue returned true")
	}
	// A queue holding only canceled events must also report no fire.
	e := s.Schedule(time.Millisecond, func() { t.Fatal("canceled event fired") })
	e.Cancel()
	if s.Step() {
		t.Fatal("Step over canceled-only queue returned true")
	}
}

func TestRunawayLimitDefault(t *testing.T) {
	// The zero Limit means the 100M default; a custom limit must not leak
	// across calls that stay under it.
	s := New(1)
	s.Limit = 1000
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 500 {
			s.Schedule(time.Microsecond, tick)
		}
	}
	s.Schedule(0, tick)
	s.Run() // 500 < 1000: must not panic
	if count != 500 {
		t.Fatalf("count = %d, want 500", count)
	}
}

func TestScheduleSteadyStateZeroAlloc(t *testing.T) {
	// The tentpole guarantee: schedule/fire/cancel in steady state (after
	// the pool has warmed) allocates nothing.
	s := New(1)
	s.Reserve(64)
	fn := func() {}
	allocs := testing.AllocsPerRun(1000, func() {
		e := s.Schedule(time.Microsecond, fn)
		s.Schedule(2*time.Microsecond, fn)
		e.Cancel()
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule/fire/cancel allocs = %g, want 0", allocs)
	}
}

func TestScheduleBytesZeroAlloc(t *testing.T) {
	s := New(1)
	s.Reserve(16)
	var delivered int
	fn := func(b []byte) { delivered += len(b) }
	frame := make([]byte, 64)
	allocs := testing.AllocsPerRun(1000, func() {
		s.ScheduleBytes(time.Microsecond, fn, frame)
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("ScheduleBytes steady-state allocs = %g, want 0", allocs)
	}
	if delivered == 0 {
		t.Fatal("byte events never delivered")
	}
}

func TestReservePresizes(t *testing.T) {
	s := New(1)
	s.Reserve(128)
	fn := func() {}
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 128; i++ {
			s.Schedule(time.Duration(i)*time.Microsecond, fn)
		}
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("scheduling within Reserve(128) allocs = %g, want 0", allocs)
	}
}

// Property: Advance always lands the clock exactly on target.
func TestQuickAdvanceExact(t *testing.T) {
	f := func(steps []uint16) bool {
		s := New(3)
		var want time.Duration
		for _, st := range steps {
			d := time.Duration(st) * time.Microsecond
			want += d
			s.Advance(d)
		}
		return s.Now() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestResetMatchesNew checks that a used simulator, once Reset, behaves
// exactly like New with the same seed: clock and counters at zero, no
// pending events, the same random stream, and handles from before the
// reset inert.
func TestResetMatchesNew(t *testing.T) {
	used := New(1)
	fired := false
	stale := used.Schedule(time.Second, func() { fired = true })
	used.Schedule(time.Millisecond, func() {})
	used.Step()
	used.Rand().Int63()
	used.Limit = 5
	used.Reset(9)

	fresh := New(9)
	if used.Now() != 0 || used.Fired() != 0 || used.Pending() != 0 || used.Limit != 0 {
		t.Fatalf("after Reset: now %v, fired %d, pending %d, limit %d", used.Now(), used.Fired(), used.Pending(), used.Limit)
	}
	for i := 0; i < 100; i++ {
		if a, b := used.Rand().Int63(), fresh.Rand().Int63(); a != b {
			t.Fatalf("draw %d: reset stream %d, fresh stream %d", i, a, b)
		}
	}
	var order []int
	for i, s := range []*Simulator{used, fresh} {
		s.Schedule(2*time.Second, func() { order = append(order, i) })
	}
	stale.Cancel() // must not cancel whatever now reuses its record
	used.Run()
	fresh.Run()
	if fired || len(order) != 2 || used.Now() != fresh.Now() {
		t.Fatalf("after Reset: stale event fired %v, order %v, clocks %v vs %v", fired, order, used.Now(), fresh.Now())
	}
}
