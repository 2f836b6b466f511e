// Package eventsim implements a deterministic discrete-event simulator.
//
// The simulator maintains a virtual clock and a priority queue of events.
// Events scheduled for the same instant fire in scheduling order, which
// keeps runs fully deterministic for a given seed. All simulated subsystems
// (links, TCP stacks, browser engines) advance time exclusively through a
// Simulator, so a whole testbed run is reproducible bit-for-bit.
//
// The queue is a concrete 4-ary min-heap over pooled event records: no
// interface boxing on push/pop, and fired or canceled events return to a
// per-simulator freelist, so schedule/fire/cancel in steady state allocates
// nothing. Handles returned by Schedule carry a generation counter, which
// makes canceling an event that already fired (and whose record has been
// recycled) a safe no-op.
package eventsim

import (
	"fmt"
	"math/rand"
	"time"
)

// event is the pooled record behind an Event handle.
type event struct {
	at  time.Duration
	seq uint64 // tie-breaker: FIFO among same-time events

	// gen distinguishes successive uses of a recycled record; an Event
	// handle only acts when its generation matches.
	gen uint32

	canceled bool

	fn   func()
	bfn  func([]byte) // byte-argument variant; avoids a closure per frame
	arg  []byte
	afn  func(any) // any-argument variant; avoids a closure per receiver
	aarg any
}

// Event is a cancelable handle to a scheduled callback. The zero value is
// inert: Cancel is a no-op.
type Event struct {
	e   *event
	gen uint32
}

// Cancel prevents a pending event from firing. Canceling an event that has
// already fired (or was already canceled) is a no-op.
func (h Event) Cancel() {
	e := h.e
	if e == nil || e.gen != h.gen || e.canceled {
		return
	}
	e.canceled = true
}

// Simulator is a discrete-event simulator with a virtual clock.
// The zero value is not usable; call New.
type Simulator struct {
	now     time.Duration
	queue   []*event
	free    []*event
	nextSeq uint64
	rng     *rand.Rand
	fired   uint64
	// Limit bounds the number of events processed by Run as a runaway
	// guard. Zero means the default of 100 million events.
	Limit uint64
}

// New returns a Simulator whose clock starts at zero and whose random
// source is seeded deterministically with seed.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Rand returns the simulator's deterministic random source.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Fired returns the number of events processed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending returns the number of events currently queued (including
// canceled events not yet dequeued).
func (s *Simulator) Pending() int { return len(s.queue) }

// Reserve pre-sizes the queue and the freelist for at least n concurrently
// pending events, so a testbed sized from its topology never grows either
// on the hot path.
func (s *Simulator) Reserve(n int) {
	if cap(s.queue) < n {
		q := make([]*event, len(s.queue), n)
		copy(q, s.queue)
		s.queue = q
	}
	if cap(s.free) < n {
		f := make([]*event, len(s.free), n)
		copy(f, s.free)
		s.free = f
	}
	if need := n - (len(s.free) + len(s.queue)); need > 0 {
		// One slab for all the records instead of a heap object each:
		// the records live as long as the simulator anyway.
		recs := make([]event, need)
		for i := range recs {
			s.free = append(s.free, &recs[i])
		}
	}
}

// alloc takes an event record from the freelist, or heap-allocates one.
func (s *Simulator) alloc() *event {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return e
	}
	return &event{}
}

// recycle returns a dequeued record to the freelist, invalidating all
// outstanding handles by bumping the generation.
func (s *Simulator) recycle(e *event) {
	e.gen++
	e.canceled = false
	e.fn = nil
	e.bfn = nil
	e.arg = nil
	e.afn = nil
	e.aarg = nil
	s.free = append(s.free, e)
}

// schedule queues a freshly filled record.
func (s *Simulator) schedule(delay time.Duration) *event {
	if delay < 0 {
		delay = 0
	}
	e := s.alloc()
	e.at = s.now + delay
	e.seq = s.nextSeq
	s.nextSeq++
	s.push(e)
	return e
}

// Schedule queues fn to run after delay. A negative delay is treated as
// zero (the event fires at the current instant, after already-queued
// same-instant events). It returns a handle so callers may cancel it.
func (s *Simulator) Schedule(delay time.Duration, fn func()) Event {
	if fn == nil {
		panic("eventsim: Schedule with nil fn")
	}
	e := s.schedule(delay)
	e.fn = fn
	return Event{e: e, gen: e.gen}
}

// ScheduleBytes queues fn(arg) to run after delay. It exists for the frame
// delivery paths: binding the argument in the event record instead of a
// closure keeps per-frame scheduling allocation-free.
func (s *Simulator) ScheduleBytes(delay time.Duration, fn func([]byte), arg []byte) Event {
	if fn == nil {
		panic("eventsim: ScheduleBytes with nil fn")
	}
	e := s.schedule(delay)
	e.bfn = fn
	e.arg = arg
	return Event{e: e, gen: e.gen}
}

// ScheduleAny queues fn(arg) to run after delay. Like ScheduleBytes it
// binds the argument in the event record; with a pointer-typed arg (stored
// directly in the interface word) scheduling a bound callback stays
// allocation-free, where a per-receiver method value would allocate.
func (s *Simulator) ScheduleAny(delay time.Duration, fn func(any), arg any) Event {
	if fn == nil {
		panic("eventsim: ScheduleAny with nil fn")
	}
	e := s.schedule(delay)
	e.afn = fn
	e.aarg = arg
	return Event{e: e, gen: e.gen}
}

// less orders events by (at, seq): earliest first, FIFO among ties.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push appends e and sifts it up the 4-ary heap.
func (s *Simulator) push(e *event) {
	s.queue = append(s.queue, e)
	q := s.queue
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !less(e, q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
}

// popMin removes and returns the earliest event.
func (s *Simulator) popMin() *event {
	q := s.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	s.queue = q[:n]
	if n > 0 {
		q = s.queue
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if less(q[j], q[m]) {
					m = j
				}
			}
			if !less(q[m], last) {
				break
			}
			q[i] = q[m]
			i = m
		}
		q[i] = last
	}
	return top
}

// Step fires the single earliest pending event, advancing the clock to it.
// It reports whether an event was fired (false when the queue is empty).
// Canceled events are discarded without firing and without counting.
func (s *Simulator) Step() bool {
	for len(s.queue) > 0 {
		e := s.popMin()
		if e.canceled {
			s.recycle(e)
			continue
		}
		if e.at < s.now {
			panic(fmt.Sprintf("eventsim: time went backwards: %v < %v", e.at, s.now))
		}
		s.now = e.at
		s.fired++
		// Recycle before invoking, so the callback can reuse the record
		// for whatever it schedules; outstanding handles are stale now.
		fn, bfn, arg, afn, aarg := e.fn, e.bfn, e.arg, e.afn, e.aarg
		s.recycle(e)
		switch {
		case bfn != nil:
			bfn(arg)
		case afn != nil:
			afn(aarg)
		default:
			fn()
		}
		return true
	}
	return false
}

// Run processes events until the queue is empty or the event limit is hit.
// It returns the number of events fired during this call.
func (s *Simulator) Run() uint64 {
	return s.RunUntil(1<<62 - 1)
}

// RunUntil processes events whose time is <= deadline. The clock is left at
// the last fired event (or untouched if none fired); it does not jump to
// the deadline. It returns the number of events fired during this call.
func (s *Simulator) RunUntil(deadline time.Duration) uint64 {
	limit := s.Limit
	if limit == 0 {
		limit = 100_000_000
	}
	var fired uint64
	for len(s.queue) > 0 && fired < limit {
		if s.peekTime() > deadline {
			break
		}
		if s.Step() {
			fired++
		}
	}
	if fired >= limit {
		panic(fmt.Sprintf("eventsim: event limit %d exceeded (runaway simulation?)", limit))
	}
	return fired
}

// peekTime returns the fire time of the earliest non-canceled event.
// The queue must be drained of leading canceled events first.
func (s *Simulator) peekTime() time.Duration {
	for len(s.queue) > 0 && s.queue[0].canceled {
		s.recycle(s.popMin())
	}
	if len(s.queue) == 0 {
		return 1<<62 - 1
	}
	return s.queue[0].at
}

// Advance moves the clock forward by d, firing any events that fall within
// the window, and leaves the clock exactly at now+d.
func (s *Simulator) Advance(d time.Duration) {
	if d < 0 {
		panic("eventsim: Advance with negative duration")
	}
	target := s.now + d
	s.RunUntil(target)
	if s.now < target {
		s.now = target
	}
}
