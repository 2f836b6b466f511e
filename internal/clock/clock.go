// Package clock models the timing APIs available to browser-based
// measurement code.
//
// The paper's central timing finding (Section 4.2) is that Java's
// Date.getTime() / System.currentTimeMillis() on Windows does not deliver
// the 1 ms resolution measurement tools assume: its *granularity* switches
// between 1 ms and ~15.6 ms (the Windows timer interrupt period), each
// regime lasting several minutes. Timestamps are floor-quantized to the
// current granularity, which is what produces negative delay overheads and
// bimodal overhead CDFs. System.nanoTime(), by contrast, is effectively
// continuous.
//
// This package provides both clock families over an arbitrary time source
// (the discrete-event simulator's virtual clock in the testbed, the real
// monotonic clock in live mode), plus the Figure 5 granularity probe.
package clock

import (
	"time"
)

// Source yields the current time. In simulation it reads the virtual
// clock; in live mode it reads the OS monotonic clock.
type Source func() time.Duration

// Clock is a timing API as seen by measurement code: it returns
// timestamps, possibly coarsened relative to the underlying source.
type Clock interface {
	// Now returns the current timestamp as reported by this API.
	Now() time.Duration
	// Name identifies the API (e.g. "Date.getTime", "System.nanoTime").
	Name() string
}

// Perfect is a clock that reports the source time unmodified, modeling
// System.nanoTime() or performance.now(): nanosecond-class resolution.
type Perfect struct {
	Src   Source
	Label string
}

// Now implements Clock.
func (p *Perfect) Now() time.Duration { return p.Src() }

// Name implements Clock.
func (p *Perfect) Name() string {
	if p.Label == "" {
		return "System.nanoTime"
	}
	return p.Label
}

// Regime is one granularity period in a schedule.
type Regime struct {
	// Granularity is the quantization step while this regime is active.
	Granularity time.Duration
	// Length is how long the regime lasts before the schedule moves on.
	Length time.Duration
}

// Schedule cycles through a list of regimes, mirroring the paper's
// observation that each granularity value "lasts for a period of time
// (several minutes) before changing to other values".
type Schedule struct {
	Regimes []Regime
	cycle   time.Duration
}

// NewSchedule builds a cyclic schedule. It panics on an empty regime list
// or non-positive lengths/granularities, which would make lookup diverge.
func NewSchedule(regimes ...Regime) *Schedule {
	if len(regimes) == 0 {
		panic("clock: empty schedule")
	}
	var cycle time.Duration
	for _, r := range regimes {
		if r.Length <= 0 || r.Granularity <= 0 {
			panic("clock: regime lengths and granularities must be positive")
		}
		cycle += r.Length
	}
	return &Schedule{Regimes: regimes, cycle: cycle}
}

// At returns the granularity in force at time t.
func (s *Schedule) At(t time.Duration) time.Duration {
	if t < 0 {
		t = 0
	}
	t %= s.cycle
	for _, r := range s.Regimes {
		if t < r.Length {
			return r.Granularity
		}
		t -= r.Length
	}
	return s.Regimes[len(s.Regimes)-1].Granularity
}

// WindowsTimerPeriod is the classic Windows timer interrupt period that
// produces the ~15 ms granularity regime (64 Hz -> 15.625 ms).
const WindowsTimerPeriod = 15625 * time.Microsecond

// The canonical schedules are process-wide singletons: they are immutable
// by convention (callers must not modify Regimes), so per-run construction
// would only churn the allocator.
var (
	windowsGetTime = NewSchedule(
		Regime{Granularity: time.Millisecond, Length: 4 * time.Minute},
		Regime{Granularity: WindowsTimerPeriod, Length: 5 * time.Minute},
	)
	linuxGetTime = NewSchedule(Regime{Granularity: time.Millisecond, Length: time.Hour})
)

// WindowsGetTimeSchedule reproduces the paper's observed behaviour of
// Date.getTime() on Windows 7: multi-minute alternation between 1 ms and
// ~15.6 ms granularity. phase offsets where in the cycle time zero falls.
func WindowsGetTimeSchedule() *Schedule { return windowsGetTime }

// LinuxGetTimeSchedule models Date.getTime() on Ubuntu: a steady 1 ms
// granularity (the paper observed the artifact only on Windows).
func LinuxGetTimeSchedule() *Schedule { return linuxGetTime }

// Quantized models Date.getTime()/System.currentTimeMillis(): timestamps
// are floor-quantized to the granularity the schedule prescribes at the
// moment of the call.
type Quantized struct {
	Src      Source
	Schedule *Schedule
	Label    string
}

// Now implements Clock: floor(t/g)*g with g the active granularity.
func (q *Quantized) Now() time.Duration {
	t := q.Src()
	g := q.Schedule.At(t)
	return t / g * g
}

// Name implements Clock.
func (q *Quantized) Name() string {
	if q.Label == "" {
		return "Date.getTime"
	}
	return q.Label
}

// Granularity returns the quantization step active right now.
func (q *Quantized) Granularity() time.Duration { return q.Schedule.At(q.Src()) }

// Probe reproduces the Figure 5 granularity test: query the clock in a
// tight loop until the returned value changes, and report the difference
// between the two distinct values. advance is invoked once per query to
// model the cost of the loop iteration (in simulation it steps the virtual
// clock; in live mode it is a no-op because real time advances by itself).
// maxIters bounds the spin; 0 means a generous default.
func Probe(c Clock, advance func(), maxIters int) (time.Duration, bool) {
	if maxIters <= 0 {
		maxIters = 10_000_000
	}
	start := c.Now()
	for i := 0; i < maxIters; i++ {
		if advance != nil {
			advance()
		}
		cur := c.Now()
		if cur != start {
			return cur - start, true
		}
	}
	return 0, false
}
