package fleet

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/obs"
)

func TestObserveAggregatesPerKey(t *testing.T) {
	r := New(Config{Shards: 4})
	kA := Key{Method: "http-get", Browser: "chrome", Region: "us"}
	kB := Key{Method: "websocket", Browser: "firefox", Region: "eu"}
	rng := rand.New(rand.NewSource(1))
	var aVals []float64
	for id := uint64(0); id < 100; id++ {
		for i := 0; i < 50; i++ {
			v := 20 + rng.Float64()*10
			aVals = append(aVals, v)
			if !r.Observe(id, kA, v, false) {
				t.Fatal("observe rejected below cap")
			}
		}
		r.Observe(1000+id, kB, 40, false)
	}
	snap := r.FanIn()
	if len(snap.Keys) != 2 {
		t.Fatalf("keys = %d, want 2", len(snap.Keys))
	}
	if snap.Sessions != 200 {
		t.Fatalf("sessions = %d, want 200", snap.Sessions)
	}
	// Keys sort by (method, browser, region): http-get before websocket.
	a, b := snap.Keys[0], snap.Keys[1]
	if a.Method != "http-get" || b.Method != "websocket" {
		t.Fatalf("key order: %q then %q", a.Method, b.Method)
	}
	if a.Count != 5000 || b.Count != 100 {
		t.Fatalf("counts = %d, %d", a.Count, b.Count)
	}
	sort.Float64s(aVals)
	exactP50 := aVals[len(aVals)/2]
	if math.Abs(a.P50-exactP50) > 1 {
		t.Fatalf("p50 = %g, exact %g", a.P50, exactP50)
	}
	if b.P50 != 40 || b.JitterMs != 0 {
		t.Fatalf("constant stream: p50=%g jitter=%g", b.P50, b.JitterMs)
	}
}

func TestJitterIsMeanAbsDeltaPerSession(t *testing.T) {
	r := New(Config{Shards: 2})
	k := Key{Method: "udp", Browser: "chrome", Region: "us"}
	// Session 1 alternates 10/20 → every |Δ| is 10.
	vals := []float64{10, 20, 10, 20, 10}
	for _, v := range vals {
		r.Observe(1, k, v, false)
	}
	snap := r.FanIn()
	if got := snap.Keys[0].JitterMs; got != 10 {
		t.Fatalf("jitter = %g, want 10", got)
	}
	// A second session's first sample contributes no jitter increment.
	r.Observe(2, k, 1000, false)
	snap = r.FanIn()
	if got := snap.Keys[0].JitterMs; got != 10 {
		t.Fatalf("jitter after new session = %g, want 10", got)
	}
}

func TestLossCountsWithoutDelay(t *testing.T) {
	r := New(Config{})
	k := Key{Method: "udp", Browser: "opera", Region: "ap"}
	for i := 0; i < 90; i++ {
		r.Observe(1, k, 5, false)
	}
	for i := 0; i < 10; i++ {
		r.Observe(1, k, 0, true)
	}
	ks := r.FanIn().Keys[0]
	if ks.Count != 100 || ks.Lost != 10 {
		t.Fatalf("count=%d lost=%d", ks.Count, ks.Lost)
	}
	if ks.LossRate != 0.1 {
		t.Fatalf("loss rate = %g", ks.LossRate)
	}
	if ks.P50 != 5 {
		t.Fatalf("lost probes leaked into the delay sketch: p50=%g", ks.P50)
	}
}

func TestSessionCapRejectsAndEndFrees(t *testing.T) {
	m := obs.NewMetrics()
	r := New(Config{Shards: 2, MaxSessions: 3, Metrics: m})
	k := Key{Method: "tcp", Browser: "ie", Region: "us"}
	for id := uint64(1); id <= 3; id++ {
		if !r.Observe(id, k, 1, false) {
			t.Fatalf("session %d rejected below cap", id)
		}
	}
	if r.Observe(4, k, 1, false) {
		t.Fatal("session 4 admitted over cap")
	}
	// Existing sessions keep working at the cap.
	if !r.Observe(2, k, 2, false) {
		t.Fatal("existing session rejected at cap")
	}
	r.End(2)
	r.End(2) // double-End is a no-op
	if !r.Observe(5, k, 1, false) {
		t.Fatal("freed slot not reusable")
	}
	r.FanIn()
	if got := m.Counter("fleet_sessions_rejected_total"); got != 1 {
		t.Fatalf("rejected counter = %d", got)
	}
	if got := m.Counter("fleet_sessions_started_total"); got != 4 {
		t.Fatalf("started counter = %d", got)
	}
	if got := m.Counter("fleet_sessions_ended_total"); got != 1 {
		t.Fatalf("ended counter = %d", got)
	}
	if got := m.Gauge("fleet_sessions_active"); got != 3 {
		t.Fatalf("active gauge = %g", got)
	}
}

func TestFanInDeltaOnlyChangedKeys(t *testing.T) {
	r := New(Config{})
	kA := Key{Method: "http-get", Browser: "chrome", Region: "us"}
	kB := Key{Method: "udp", Browser: "chrome", Region: "us"}
	r.Observe(1, kA, 10, false)
	r.Observe(2, kB, 20, false)
	r.FanIn()

	// Subscribe, then move only kB.
	ch := r.hub.subscribe()
	defer r.hub.unsubscribe(ch)
	r.Observe(2, kB, 21, false)
	snap := r.FanIn()
	if len(snap.Keys) != 2 {
		t.Fatalf("snapshot keys = %d", len(snap.Keys))
	}
	select {
	case frame := <-ch:
		s := string(frame)
		if !strings.Contains(s, "event: delta") || !strings.Contains(s, `"method":"udp"`) {
			t.Fatalf("delta frame = %q", s)
		}
		if strings.Contains(s, `"method":"http-get"`) {
			t.Fatalf("unchanged key in delta: %q", s)
		}
	default:
		t.Fatal("no delta published")
	}

	// A fan-in with no ingest publishes nothing.
	r.FanIn()
	select {
	case frame := <-ch:
		t.Fatalf("idle fan-in published %q", frame)
	default:
	}
}

func TestConcurrentIngestMatchesSerialTotals(t *testing.T) {
	r := New(Config{Shards: 8})
	k := Key{Method: "http-get", Browser: "chrome", Region: "us"}
	const workers, perWorker = 16, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				r.Observe(uint64(w), k, 10+rng.Float64(), i%100 == 99)
			}
		}(w)
	}
	// Fan in concurrently with ingest: totals must still balance. A
	// session with no sample for sessionIdleTicks passes ends, so the
	// loop stops short of that: with the final FanIn below, a worker that
	// finished before the first pass sees sessionIdleTicks-1 passes.
	stop := make(chan struct{})
	var fanWG sync.WaitGroup
	fanWG.Add(1)
	go func() {
		defer fanWG.Done()
		for pass := 0; pass < sessionIdleTicks-2; pass++ {
			select {
			case <-stop:
				return
			default:
				r.FanIn()
			}
		}
	}()
	wg.Wait()
	close(stop)
	fanWG.Wait()
	snap := r.FanIn()
	ks := snap.Keys[0]
	if want := uint64(workers * perWorker); ks.Count != want {
		t.Fatalf("count = %d, want %d", ks.Count, want)
	}
	if want := uint64(workers * (perWorker / 100)); ks.Lost != want {
		t.Fatalf("lost = %d, want %d", ks.Lost, want)
	}
	if snap.Sessions != workers {
		t.Fatalf("sessions = %d, want %d", snap.Sessions, workers)
	}
}

func TestStartStopTicker(t *testing.T) {
	r := New(Config{Interval: time.Millisecond})
	k := Key{Method: "udp", Browser: "chrome", Region: "us"}
	r.Start()
	r.Start() // idempotent
	r.Observe(1, k, 3, false)
	deadline := time.After(2 * time.Second)
	for r.Snapshot().Seq == 0 {
		select {
		case <-deadline:
			t.Fatal("ticker never fanned in")
		case <-time.After(time.Millisecond):
		}
	}
	r.Observe(1, k, 4, false)
	r.Stop()
	r.Stop() // idempotent
	// Stop's final fan-in flushed the straggler sample.
	if got := r.Snapshot().Keys[0].Count; got != 2 {
		t.Fatalf("count after Stop = %d, want 2", got)
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	mk := func(seed int64) Snapshot {
		r := New(Config{Shards: 4})
		rng := rand.New(rand.NewSource(seed))
		keys := []Key{
			{Method: "udp", Browser: "safari", Region: "eu"},
			{Method: "http-get", Browser: "chrome", Region: "us"},
			{Method: "http-get", Browser: "chrome", Region: "eu"},
			{Method: "http-get", Browser: "firefox", Region: "us"},
		}
		// Random interleave; snapshot order must come out sorted anyway.
		for i := 0; i < 1000; i++ {
			k := keys[rng.Intn(len(keys))]
			r.Observe(uint64(rng.Intn(50)), k, 10, false)
		}
		return r.FanIn()
	}
	snap := mk(42)
	for i := 1; i < len(snap.Keys); i++ {
		a, b := snap.Keys[i-1], snap.Keys[i]
		if !keyLess(Key{a.Method, a.Browser, a.Region}, Key{b.Method, b.Browser, b.Region}) {
			t.Fatalf("keys not sorted at %d: %+v then %+v", i, a, b)
		}
	}
}

// TestFleetMetricsAllHaveHelp is the registry-wide HELP guard for the
// fleet plane: every series the registry writes must carry SetHelp text,
// so WritePrometheus never ships a HELP-less family.
func TestFleetMetricsAllHaveHelp(t *testing.T) {
	m := obs.NewMetrics()
	r := New(Config{Metrics: m, MaxSessions: 1})
	k := Key{Method: "http-get", Browser: "chrome", Region: "us"}
	r.Observe(1, k, 10, false)
	r.Observe(2, k, 10, false) // rejected — moves the rejection counter
	r.End(1)
	r.FanIn()
	if missing := m.FamiliesMissingHelp(); len(missing) != 0 {
		t.Fatalf("fleet metric families missing HELP text: %v", missing)
	}
}

// TestSnapshotIndependentOfInterleaving: the same per-session sample
// streams, ingested from several goroutines with different session
// splits and interleavings, publish identical snapshots every tick.
// Delays sit on a 1/4 ms grid so jitter sums are exact in any order, and
// each shard sees fewer than 512 samples of a key per tick: a shard
// sketch that fills its buffer mid-tick compresses whichever values
// arrived first. Per-key tick totals do pass 512, so fan-in flushes.
func TestSnapshotIndependentOfInterleaving(t *testing.T) {
	const sessions, rounds, ticks = 600, 5, 3
	keys := []Key{
		{Method: "http-get", Browser: "chrome", Region: "us"},
		{Method: "websocket", Browser: "firefox", Region: "eu"},
		{Method: "udp", Browser: "opera", Region: "ap"},
	}
	// delay[tick][round][session], drawn once; NaN marks a lost probe.
	rng := rand.New(rand.NewSource(3))
	delay := make([][][]float64, ticks)
	for tk := range delay {
		delay[tk] = make([][]float64, rounds)
		for rd := range delay[tk] {
			delay[tk][rd] = make([]float64, sessions)
			for id := range delay[tk][rd] {
				v := float64(rng.Intn(400)) / 4
				if rng.Intn(50) == 0 {
					v = math.NaN()
				}
				delay[tk][rd][id] = v
			}
		}
	}
	run := func(workers int, seed int64) []Snapshot {
		r := New(Config{Shards: 8})
		ids := rand.New(rand.NewSource(seed)).Perm(sessions)
		var snaps []Snapshot
		for tk := 0; tk < ticks; tk++ {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(mine []int, yield *rand.Rand) {
					defer wg.Done()
					for rd := 0; rd < rounds; rd++ {
						for _, id := range mine {
							v := delay[tk][rd][id]
							r.Observe(uint64(id), keys[id%len(keys)], v, math.IsNaN(v))
							if yield.Intn(8) == 0 {
								runtime.Gosched()
							}
						}
					}
				}(ids[w*sessions/workers:(w+1)*sessions/workers], rand.New(rand.NewSource(seed+int64(w))))
			}
			wg.Wait()
			snaps = append(snaps, r.FanIn())
		}
		return snaps
	}
	want := run(1, 0)
	for i, c := range []struct {
		workers int
		seed    int64
	}{{2, 1}, {3, 2}, {4, 3}, {8, 4}} {
		if got := run(c.workers, c.seed); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d (%d workers): snapshots differ from the sequential run:\n got %+v\nwant %+v",
				i, c.workers, got, want)
		}
	}
}
