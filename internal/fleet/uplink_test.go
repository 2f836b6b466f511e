package fleet

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/fleetwire"
	"github.com/browsermetric/browsermetric/internal/obs"
)

// frameSink is a test root: it decodes every POSTed frame and records it.
type frameSink struct {
	mu     sync.Mutex
	frames []*fleetwire.Frame
	fail   atomic.Int64 // requests to 503 before accepting
	code   atomic.Int64 // forced status code (0 = accept)
}

func (fs *frameSink) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(req.Body)
	if err != nil {
		w.WriteHeader(http.StatusBadRequest)
		return
	}
	if c := fs.code.Load(); c != 0 {
		w.WriteHeader(int(c))
		return
	}
	if fs.fail.Load() > 0 {
		fs.fail.Add(-1)
		w.WriteHeader(http.StatusServiceUnavailable)
		return
	}
	for len(body) > 0 {
		f, n, err := fleetwire.DecodeFrame(body)
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		fs.mu.Lock()
		fs.frames = append(fs.frames, f)
		fs.mu.Unlock()
		body = body[n:]
	}
	w.WriteHeader(http.StatusOK)
}

func (fs *frameSink) count() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.frames)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestUplinkShipsTickDeltas(t *testing.T) {
	fs := &frameSink{}
	srv := httptest.NewServer(fs)
	defer srv.Close()

	m := obs.NewMetrics()
	u, err := NewUplink(UplinkConfig{Node: "c1", URL: srv.URL, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Stop()
	r := New(Config{DeltaSink: u.Sink})
	k := Key{Method: "http-get", Browser: "chrome", Region: "us"}
	r.Observe(1, k, 12, false)
	r.Observe(1, k, 14, false)
	r.FanIn()
	r.Observe(1, k, 16, false)
	r.FanIn()

	waitFor(t, "2 acked frames at the root", func() bool {
		return fs.count() == 2 && m.Counter("fleet_uplink_shipped_total") == 2
	})
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f1, f2 := fs.frames[0], fs.frames[1]
	if f1.Node != "c1" || f1.Seq != 1 || f2.Seq != 2 {
		t.Fatalf("frames = %+v / %+v", f1, f2)
	}
	if f1.Sessions != 1 || len(f1.Keys) != 1 {
		t.Fatalf("frame 1 = %+v", f1)
	}
	kd := f1.Keys[0]
	if kd.Method != "http-get" || kd.Count != 2 || kd.Sketch.Count() != 2 {
		t.Fatalf("frame 1 key = %+v", kd)
	}
	if f2.Keys[0].Count != 1 {
		t.Fatalf("frame 2 carries a cumulative count %d, want tick delta 1", f2.Keys[0].Count)
	}
	if !u.Ready() {
		t.Fatal("uplink not ready after acks")
	}
	if got := m.Counter("fleet_uplink_shipped_total"); got != 2 {
		t.Fatalf("shipped = %d", got)
	}
	if got := m.Counter("fleet_uplink_dropped_total"); got != 0 {
		t.Fatalf("dropped = %d", got)
	}
	if missing := m.FamiliesMissingHelp(); len(missing) != 0 {
		t.Fatalf("uplink families missing help: %v", missing)
	}
}

func TestUplinkRetriesWithBackoffThenDelivers(t *testing.T) {
	fs := &frameSink{}
	fs.fail.Store(2)
	srv := httptest.NewServer(fs)
	defer srv.Close()

	m := obs.NewMetrics()
	lim := defaultUplinkLimits
	lim.backoff = 2 * time.Millisecond
	u, err := newUplink(UplinkConfig{Node: "c1", URL: srv.URL, Metrics: m}, lim)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Stop()
	u.Sink(TickDelta{Seq: 1, Sessions: 1, Keys: []DeltaKey{{
		Key: Key{Method: "udp", Browser: "chrome", Region: "us"}, Agg: Agg{Count: 1},
	}}})
	waitFor(t, "delivery after retries", func() bool { return fs.count() == 1 && u.Ready() })
	if u.pending() != 0 {
		t.Fatalf("queue not drained: %d", u.pending())
	}
	if got := m.Counter("fleet_uplink_retries_total"); got < 2 {
		t.Fatalf("retries = %d, want >= 2", got)
	}
	if !u.Ready() {
		t.Fatal("not ready after eventual ack")
	}
}

func TestUplinkPermanentRejectionDropsWithoutRetry(t *testing.T) {
	fs := &frameSink{}
	fs.code.Store(http.StatusBadRequest)
	srv := httptest.NewServer(fs)
	defer srv.Close()

	m := obs.NewMetrics()
	u, err := NewUplink(UplinkConfig{Node: "c1", URL: srv.URL, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Stop()
	u.Sink(TickDelta{Seq: 1, Keys: []DeltaKey{{
		Key: Key{Method: "udp", Browser: "chrome", Region: "us"}, Agg: Agg{Count: 1},
	}}})
	waitFor(t, "permanent drop", func() bool {
		return m.Counter("fleet_uplink_dropped_total") == 1 && u.pending() == 0
	})
	if got := m.Counter("fleet_uplink_retries_total"); got != 0 {
		t.Fatalf("permanent rejection was retried %d times", got)
	}
	if u.Ready() {
		t.Fatal("ready without any ack")
	}
}

// TestUplinkUnreachableRootNeverBlocksFanIn is the observer-effect
// acceptance bound: with the root down, every fan-in tick (which runs
// the Sink synchronously) still completes fast — the uplink queues,
// drops the oldest, and never pushes backpressure into the collector.
func TestUplinkUnreachableRootNeverBlocksFanIn(t *testing.T) {
	// A server that is immediately closed yields a port that refuses.
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close()

	m := obs.NewMetrics()
	u, err := newUplink(UplinkConfig{Node: "c1", URL: url, Metrics: m},
		uplinkLimits{queueDepth: 4, backoff: time.Millisecond, maxBackoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Stop()
	r := New(Config{DeltaSink: u.Sink})
	k := Key{Method: "http-get", Browser: "chrome", Region: "us"}

	const ticks = 40
	for i := 0; i < ticks; i++ {
		r.Observe(1, k, float64(i), false)
		start := time.Now()
		r.FanIn()
		if took := time.Since(start); took > 200*time.Millisecond {
			t.Fatalf("fan-in tick %d took %v with root down", i, took)
		}
	}
	if got := m.Counter("fleet_uplink_frames_total"); got != ticks {
		t.Fatalf("frames = %d, want %d", got, ticks)
	}
	waitFor(t, "overflow drops", func() bool {
		return m.Counter("fleet_uplink_dropped_total") >= ticks-int64(4)-1
	})
	if u.Ready() {
		t.Fatal("ready with the root down")
	}
	if u.pending() > 4 {
		t.Fatalf("queue exceeded depth: %d", u.pending())
	}
}
