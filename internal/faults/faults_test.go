package faults

import (
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/eventsim"
	"github.com/browsermetric/browsermetric/internal/netsim"
	"github.com/browsermetric/browsermetric/internal/obs"
)

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want Profile
		err  bool
	}{
		{"", Clean, false},
		{"none", Clean, false},
		{"clean", Clean, false},
		{"Clean", Clean, false},
		{" lossy1pct ", Lossy1pct, false},
		{"BurstyWiFi", BurstyWiFi, false},
		{"CONGESTED", Congested, false},
		{"wifi", Clean, true},
		{"lossy", Clean, true},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if (err != nil) != c.err {
			t.Errorf("Parse(%q) err = %v, want err=%v", c.in, err, c.err)
		}
		if got != c.want {
			t.Errorf("Parse(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestProfilesHaveParams(t *testing.T) {
	for _, p := range Profiles() {
		params, err := p.Params()
		if err != nil {
			t.Fatalf("%s.Params: %v", p, err)
		}
		if p == Clean {
			if params != (Params{}) {
				t.Fatalf("Clean must have zero Params, got %+v", params)
			}
			if p.Enabled() {
				t.Fatal("Clean must not be Enabled")
			}
			continue
		}
		if !p.Enabled() {
			t.Fatalf("%s must be Enabled", p)
		}
	}
	if Profile("").Enabled() {
		t.Fatal("zero-value profile must not be Enabled")
	}
	if Profile("").String() != "clean" {
		t.Fatalf("zero-value String = %q", Profile("").String())
	}
	if _, err := Profile("bogus").Params(); err == nil {
		t.Fatal("unknown profile Params must error")
	}
}

// judgeN judges n same-size frames back to back and returns the verdicts.
func judgeN(im *Impairment, n int, step time.Duration) []netsim.Verdict {
	out := make([]netsim.Verdict, n)
	for i := range out {
		now := time.Duration(i) * step
		out[i] = im.Judge(0, 1000, now, now+100*time.Microsecond)
	}
	return out
}

func TestIIDLossDeterministicAndCalibrated(t *testing.T) {
	const n = 20000
	a := New(Params{Loss: 0.01}, 7, nil)
	b := New(Params{Loss: 0.01}, 7, nil)
	va := judgeN(a, n, time.Millisecond)
	vb := judgeN(b, n, time.Millisecond)
	for i := range va {
		if va[i] != vb[i] {
			t.Fatalf("verdict %d differs across same-seed impairments", i)
		}
	}
	if a.Stats.Judged != n {
		t.Fatalf("Judged = %d, want %d", a.Stats.Judged, n)
	}
	loss := float64(a.Stats.DropsLoss) / n
	if loss < 0.005 || loss > 0.02 {
		t.Fatalf("i.i.d. loss rate = %.4f, want ≈0.01", loss)
	}
	c := New(Params{Loss: 0.01}, 8, nil)
	vc := judgeN(c, n, time.Millisecond)
	same := 0
	for i := range va {
		if va[i].Drop == vc[i].Drop {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds produced identical drop sequences")
	}
}

func TestGilbertElliottBursts(t *testing.T) {
	const n = 50000
	ge := &GilbertElliott{GoodToBad: 0.05, BadToGood: 0.30, LossGood: 0, LossBad: 0.5}
	im := New(Params{GE: ge}, 3, nil)
	v := judgeN(im, n, time.Millisecond)

	// Effective loss should be near stationaryBad × LossBad ≈ 0.143×0.5.
	loss := float64(im.Stats.DropsLoss) / n
	if loss < 0.03 || loss > 0.15 {
		t.Fatalf("GE loss rate = %.4f, want ≈0.07", loss)
	}

	// Burstiness: P(drop | previous dropped) must be far above the marginal
	// rate — the whole point of the two-state chain.
	condDrops, condTotal := 0, 0
	for i := 1; i < n; i++ {
		if v[i-1].Drop {
			condTotal++
			if v[i].Drop {
				condDrops++
			}
		}
	}
	cond := float64(condDrops) / float64(condTotal)
	if cond < 2*loss {
		t.Fatalf("P(drop|drop) = %.3f not bursty vs marginal %.3f", cond, loss)
	}
}

func TestQueueDelayAndTailDrop(t *testing.T) {
	// 1 Mbps bottleneck, 4000-byte queue: each 1000-byte frame drains in
	// 8 ms; five frames arriving at t=0 mean the queue holds 4×1000 bytes
	// after the first is in service.
	im := New(Params{Rate: 1_000_000, QueueBytes: 4000}, 1, nil)
	var delays []time.Duration
	drops := 0
	for i := 0; i < 6; i++ {
		v := im.Judge(0, 1000, 0, 100*time.Microsecond)
		if v.Drop {
			drops++
			continue
		}
		delays = append(delays, v.Delay)
	}
	if drops == 0 {
		t.Fatal("burst past QueueBytes must tail-drop")
	}
	for i := 1; i < len(delays); i++ {
		if delays[i] <= delays[i-1] {
			t.Fatalf("queue delay must grow with backlog: %v", delays)
		}
	}
	if im.Stats.DropsQueue != int64(drops) {
		t.Fatalf("DropsQueue = %d, want %d", im.Stats.DropsQueue, drops)
	}

	// After the queue drains, delay falls back to just the frame's own
	// bottleneck serialization (8 ms).
	v := im.Judge(0, 1000, time.Minute, time.Minute+100*time.Microsecond)
	if v.Drop || v.Delay != 8*time.Millisecond {
		t.Fatalf("drained-queue verdict = %+v, want 8ms delay", v)
	}
}

func TestDuplicationAndDefaultDupDelay(t *testing.T) {
	im := New(Params{DupProb: 1}, 1, nil)
	v := im.Judge(0, 100, 0, time.Millisecond)
	if !v.Dup || v.DupDelay != defaultDupDelay {
		t.Fatalf("verdict = %+v, want Dup with default delay", v)
	}
	if im.Stats.Dups != 1 {
		t.Fatalf("Dups = %d", im.Stats.Dups)
	}
	im2 := New(Params{DupProb: 1, DupDelay: time.Millisecond}, 1, nil)
	if v := im2.Judge(0, 100, 0, time.Millisecond); v.DupDelay != time.Millisecond {
		t.Fatalf("explicit DupDelay not honored: %+v", v)
	}
}

func TestReorderHoldAndDepth(t *testing.T) {
	im := New(Params{ReorderProb: 1, ReorderDelay: 10 * time.Millisecond}, 1, nil)
	// First frame held 10 ms; second frame sent 1 ms later, also held, but
	// still lands after the first — then a third frame whose final delivery
	// beats neither. Use a second impairment with ReorderProb on only the
	// first judgment via a crafted sequence instead: simplest observable is
	// that a held frame followed by a fast frame counts a reorder.
	v0 := im.Judge(0, 100, 0, 100*time.Microsecond)
	if v0.Delay != 10*time.Millisecond {
		t.Fatalf("hold delay = %v", v0.Delay)
	}
	// Second frame: sent at 1 ms, held too (prob 1), lands at 11.1 ms —
	// after frame 0's 10.1 ms, so no overtake yet.
	im.Judge(0, 100, time.Millisecond, time.Millisecond+100*time.Microsecond)

	// Now a frame judged by an impairment with no hold: overtakes both.
	im2 := New(Params{ReorderProb: 0.5, ReorderDelay: 20 * time.Millisecond}, 9, nil)
	reorders := 0
	for i := 0; i < 2000; i++ {
		now := time.Duration(i) * 100 * time.Microsecond
		im2.Judge(0, 100, now, now+50*time.Microsecond)
	}
	reorders = int(im2.Stats.Reorders)
	if reorders == 0 {
		t.Fatal("mixed held/unheld frames must record reorders")
	}
	if im2.Stats.Judged != 2000 {
		t.Fatalf("Judged = %d", im2.Stats.Judged)
	}
}

func TestJitterBounded(t *testing.T) {
	im := New(Params{Jitter: 2 * time.Millisecond}, 5, nil)
	for i := 0; i < 1000; i++ {
		now := time.Duration(i) * time.Millisecond
		v := im.Judge(0, 100, now, now+time.Microsecond)
		if v.Drop || v.Dup {
			t.Fatalf("jitter-only params produced %+v", v)
		}
		if v.Delay < 0 || v.Delay >= 2*time.Millisecond {
			t.Fatalf("jitter %v out of [0, 2ms)", v.Delay)
		}
	}
}

func TestZeroParamsPassEverything(t *testing.T) {
	im := New(Params{}, 1, nil)
	for i := 0; i < 100; i++ {
		now := time.Duration(i) * time.Millisecond
		if v := im.Judge(0, 1500, now, now+time.Microsecond); v != (netsim.Verdict{}) {
			t.Fatalf("zero Params issued %+v", v)
		}
	}
	if im.Stats != (Counters{Judged: 100}) {
		t.Fatalf("Stats = %+v", im.Stats)
	}
}

func TestSidesIndependent(t *testing.T) {
	// A bottleneck on side 0 must not delay side 1: the two directions of
	// a full-duplex link have independent queues and chains.
	im := New(Params{Rate: 1_000_000}, 1, nil)
	im.Judge(0, 1000, 0, time.Microsecond)
	im.Judge(0, 1000, 0, time.Microsecond)
	v := im.Judge(1, 1000, 0, time.Microsecond)
	if v.Delay != 8*time.Millisecond {
		t.Fatalf("side 1 first frame delay = %v, want its own 8ms serialization only", v.Delay)
	}
}

func TestMetricsExported(t *testing.T) {
	met := obs.NewMetrics()
	im := New(Params{Loss: 1}, 1, met)
	im.Judge(0, 100, 0, time.Microsecond)
	if met.Counter("fault_frames") != 1 || met.Counter("fault_drops_loss") != 1 {
		t.Fatalf("fault counters not exported: frames=%d drops=%d",
			met.Counter("fault_frames"), met.Counter("fault_drops_loss"))
	}
}

// linkSink records frames delivered through a netsim link.
type linkSink struct {
	times []time.Duration
	sim   interface{ Now() time.Duration }
}

func (s *linkSink) Receive(_ *netsim.Port, _ []byte) { s.times = append(s.times, s.sim.Now()) }

func TestNetsimIntegration(t *testing.T) {
	// Loss=1 drops every frame; DupProb=1 delivers every frame twice.
	run := func(p Params) (delivered int, dropped int) {
		sim := newSim(t)
		link := netsim.NewLink(sim, 100_000_000, time.Microsecond)
		sink := &linkSink{sim: sim}
		src := link.Attach(&nullDevice{})
		link.Attach(sink)
		link.Impair = New(p, 11, nil)
		for i := 0; i < 10; i++ {
			src.Send(make([]byte, 100))
		}
		sim.Advance(time.Second)
		return len(sink.times), link.Dropped
	}
	if d, drop := run(Params{Loss: 1}); d != 0 || drop != 10 {
		t.Fatalf("Loss=1: delivered %d dropped %d", d, drop)
	}
	if d, drop := run(Params{DupProb: 1}); d != 20 || drop != 0 {
		t.Fatalf("DupProb=1: delivered %d dropped %d, want 20/0", d, drop)
	}
	if d, drop := run(Params{}); d != 10 || drop != 0 {
		t.Fatalf("zero params: delivered %d dropped %d", d, drop)
	}
}

type nullDevice struct{}

func (nullDevice) Receive(_ *netsim.Port, _ []byte) {}

func newSim(t *testing.T) *eventsim.Simulator {
	t.Helper()
	return eventsim.New(1)
}

// TestResetMatchesNew checks that an impairment that judged frames under
// one profile, once Reset to another, issues the verdicts a fresh one
// would.
func TestResetMatchesNew(t *testing.T) {
	lossy, err := Lossy1pct.Params()
	if err != nil {
		t.Fatal(err)
	}
	bursty, err := BurstyWiFi.Params()
	if err != nil {
		t.Fatal(err)
	}
	judge := func(im *Impairment) []netsim.Verdict {
		var out []netsim.Verdict
		for i := 0; i < 500; i++ {
			now := time.Duration(i) * 100 * time.Microsecond
			out = append(out, im.Judge(i%2, 1514, now, now+time.Millisecond))
		}
		return out
	}
	used := New(lossy, 3, nil)
	judge(used)
	used.Reset(bursty, 11, obs.NewMetrics())
	fresh := New(bursty, 11, nil)
	got, want := judge(used), judge(fresh)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("verdict %d: reset %+v, fresh %+v", i, got[i], want[i])
		}
	}
	if used.Stats != fresh.Stats {
		t.Fatalf("stats: reset %+v, fresh %+v", used.Stats, fresh.Stats)
	}
}
