package clock

import (
	"testing"
	"testing/quick"
	"time"
)

// fakeSource is a manually advanced time source.
type fakeSource struct{ t time.Duration }

func (f *fakeSource) now() time.Duration   { return f.t }
func (f *fakeSource) step(d time.Duration) { f.t += d }

func TestPerfectPassesThrough(t *testing.T) {
	src := &fakeSource{t: 1234567 * time.Nanosecond}
	c := &Perfect{Src: src.now}
	if c.Now() != src.t {
		t.Fatalf("Now = %v, want %v", c.Now(), src.t)
	}
	if c.Name() != "System.nanoTime" {
		t.Fatalf("Name = %q", c.Name())
	}
}

func TestPerfectCustomLabel(t *testing.T) {
	c := &Perfect{Src: (&fakeSource{}).now, Label: "performance.now"}
	if c.Name() != "performance.now" {
		t.Fatalf("Name = %q", c.Name())
	}
}

func TestQuantizedFloors(t *testing.T) {
	src := &fakeSource{}
	sched := NewSchedule(Regime{Granularity: time.Millisecond, Length: time.Hour})
	c := &Quantized{Src: src.now, Schedule: sched}

	src.t = 1700 * time.Microsecond
	if got := c.Now(); got != time.Millisecond {
		t.Fatalf("Now(1.7ms) = %v, want 1ms", got)
	}
	src.t = 2*time.Millisecond - time.Nanosecond
	if got := c.Now(); got != time.Millisecond {
		t.Fatalf("Now(2ms-1ns) = %v, want 1ms", got)
	}
	src.t = 2 * time.Millisecond
	if got := c.Now(); got != 2*time.Millisecond {
		t.Fatalf("Now(2ms) = %v, want 2ms", got)
	}
}

func TestQuantizedName(t *testing.T) {
	c := &Quantized{Src: (&fakeSource{}).now, Schedule: LinuxGetTimeSchedule()}
	if c.Name() != "Date.getTime" {
		t.Fatalf("Name = %q", c.Name())
	}
}

func TestScheduleCycles(t *testing.T) {
	s := NewSchedule(
		Regime{Granularity: time.Millisecond, Length: time.Minute},
		Regime{Granularity: 15 * time.Millisecond, Length: 2 * time.Minute},
	)
	cases := []struct {
		at   time.Duration
		want time.Duration
	}{
		{0, time.Millisecond},
		{59 * time.Second, time.Millisecond},
		{time.Minute, 15 * time.Millisecond},
		{2 * time.Minute, 15 * time.Millisecond},
		{3 * time.Minute, time.Millisecond},                     // wrapped
		{3*time.Minute + 61*time.Second, 15 * time.Millisecond}, // wrapped into second regime
		{-5 * time.Second, time.Millisecond},                    // negative clamps to 0
	}
	for _, c := range cases {
		if got := s.At(c.at); got != c.want {
			t.Errorf("At(%v) = %v, want %v", c.at, got, c.want)
		}
	}
}

func TestNewSchedulePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty":        func() { NewSchedule() },
		"zero length":  func() { NewSchedule(Regime{Granularity: 1, Length: 0}) },
		"zero granule": func() { NewSchedule(Regime{Granularity: 0, Length: 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestWindowsScheduleHasTwoLevels(t *testing.T) {
	s := WindowsGetTimeSchedule()
	seen := map[time.Duration]bool{}
	for at := time.Duration(0); at < time.Hour; at += 30 * time.Second {
		seen[s.At(at)] = true
	}
	if !seen[time.Millisecond] || !seen[WindowsTimerPeriod] {
		t.Fatalf("levels seen: %v, want both 1ms and %v", seen, WindowsTimerPeriod)
	}
	if len(seen) != 2 {
		t.Fatalf("want exactly two granularity levels, got %v", seen)
	}
}

func TestLinuxScheduleConstant(t *testing.T) {
	s := LinuxGetTimeSchedule()
	for at := time.Duration(0); at < 3*time.Hour; at += 13 * time.Minute {
		if s.At(at) != time.Millisecond {
			t.Fatalf("At(%v) = %v, want constant 1ms", at, s.At(at))
		}
	}
}

func TestProbeMeasuresGranularity(t *testing.T) {
	src := &fakeSource{}
	c := &Quantized{Src: src.now, Schedule: NewSchedule(Regime{Granularity: 15 * time.Millisecond, Length: time.Hour})}
	g, ok := Probe(c, func() { src.step(50 * time.Microsecond) }, 0)
	if !ok {
		t.Fatal("probe did not converge")
	}
	if g != 15*time.Millisecond {
		t.Fatalf("granularity = %v, want 15ms", g)
	}
}

func TestProbePerfectClockSeesSpinStep(t *testing.T) {
	src := &fakeSource{}
	c := &Perfect{Src: src.now}
	g, ok := Probe(c, func() { src.step(100 * time.Nanosecond) }, 0)
	if !ok || g != 100*time.Nanosecond {
		t.Fatalf("g=%v ok=%v, want 100ns true", g, ok)
	}
}

func TestProbeGivesUp(t *testing.T) {
	src := &fakeSource{} // never advances
	c := &Perfect{Src: src.now}
	if _, ok := Probe(c, nil, 10); ok {
		t.Fatal("expected probe to give up on a frozen clock")
	}
}

func TestGranularityAccessor(t *testing.T) {
	src := &fakeSource{}
	c := &Quantized{Src: src.now, Schedule: WindowsGetTimeSchedule()}
	if c.Granularity() != time.Millisecond {
		t.Fatalf("Granularity at t=0 = %v, want 1ms", c.Granularity())
	}
	src.t = 4*time.Minute + time.Second
	if c.Granularity() != WindowsTimerPeriod {
		t.Fatalf("Granularity in second regime = %v, want %v", c.Granularity(), WindowsTimerPeriod)
	}
}

// Property: quantized timestamps never exceed the source time and lag it by
// less than one granule.
func TestQuickQuantizedBounds(t *testing.T) {
	sched := WindowsGetTimeSchedule()
	f := func(us uint32) bool {
		src := &fakeSource{t: time.Duration(us) * time.Microsecond}
		c := &Quantized{Src: src.now, Schedule: sched}
		got := c.Now()
		g := sched.At(src.t)
		return got <= src.t && src.t-got < g && got%g == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantized clocks are monotone non-decreasing as the source
// advances, even across regime boundaries.
func TestQuickQuantizedMonotone(t *testing.T) {
	sched := WindowsGetTimeSchedule()
	f := func(steps []uint16) bool {
		src := &fakeSource{}
		c := &Quantized{Src: src.now, Schedule: sched}
		prev := c.Now()
		for _, s := range steps {
			src.step(time.Duration(s) * time.Microsecond)
			cur := c.Now()
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
