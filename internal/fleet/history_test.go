package fleet

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/obs"
)

func tickWithSample(r *Registry, k Key, id uint64, v float64) Snapshot {
	r.Observe(id, k, v, false)
	return r.FanIn()
}

func TestHistoryRingBounded(t *testing.T) {
	r := New(Config{})
	r.liveView = newLiveView(4, 1)
	k := Key{Method: "http-get", Browser: "chrome", Region: "us"}
	for i := 0; i < 7; i++ {
		tickWithSample(r, k, 1, float64(10+i))
	}
	h := r.History(0)
	if len(h) != 4 {
		t.Fatalf("history length = %d, want ring cap 4", len(h))
	}
	for i, s := range h {
		if want := uint64(4 + i); s.Seq != want {
			t.Fatalf("history[%d].Seq = %d, want %d (oldest evicted)", i, s.Seq, want)
		}
	}
	if got := r.History(5); len(got) != 2 || got[0].Seq != 6 {
		t.Fatalf("History(5) = %+v, want seqs 6,7", got)
	}
	// Unchanged fan-ins (no new samples) must not enter the ring.
	r.FanIn()
	r.FanIn()
	if got := r.historyLen(); got != 4 {
		t.Fatalf("idle fan-ins grew history to %d", got)
	}
}

func TestHistoryEverySubsamples(t *testing.T) {
	r := New(Config{})
	r.liveView = newLiveView(16, 3)
	k := Key{Method: "udp", Browser: "opera", Region: "eu"}
	for i := 0; i < 9; i++ {
		tickWithSample(r, k, 1, float64(i+1))
	}
	h := r.History(0)
	if len(h) != 3 {
		t.Fatalf("history length = %d, want 3 (every 3rd of 9 changed)", len(h))
	}
	for i, want := range []uint64{1, 4, 7} {
		if h[i].Seq != want {
			t.Fatalf("history[%d].Seq = %d, want %d", i, h[i].Seq, want)
		}
	}
}

func TestHistoryHandler(t *testing.T) {
	r := New(Config{})
	k := Key{Method: "websocket", Browser: "firefox", Region: "ap"}
	for i := 0; i < 3; i++ {
		tickWithSample(r, k, 1, float64(20+i))
	}
	srv := httptest.NewServer(r.HistoryHandler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "?since=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var body struct {
		Since     uint64     `json:"since"`
		Snapshots []Snapshot `json:"snapshots"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Since != 1 || len(body.Snapshots) != 2 {
		t.Fatalf("since=%d snapshots=%d, want 1 and 2", body.Since, len(body.Snapshots))
	}
	if body.Snapshots[0].Seq != 2 || body.Snapshots[1].Seq != 3 {
		t.Fatalf("snapshot seqs = %d,%d", body.Snapshots[0].Seq, body.Snapshots[1].Seq)
	}
	if len(body.Snapshots[1].Keys) != 1 || body.Snapshots[1].Keys[0].Count != 3 {
		t.Fatalf("latest snapshot keys = %+v", body.Snapshots[1].Keys)
	}

	bad, err := http.Get(srv.URL + "?since=zap")
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad since: status = %d", bad.StatusCode)
	}
}

func TestSSEEventIDsAndReconnectReplay(t *testing.T) {
	m := obs.NewMetrics()
	r := New(Config{Metrics: m})
	k := Key{Method: "http-get", Browser: "chrome", Region: "us"}
	for i := 0; i < 5; i++ {
		tickWithSample(r, k, 1, float64(30+i))
	}
	srv := httptest.NewServer(r.LiveHandler())
	defer srv.Close()

	// A reconnect that saw seq 2 replays ring snapshots 3..5; the current
	// snapshot is seq 5 and is covered by the replay, so nothing doubles.
	req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
	req.Header.Set("Accept", "text/event-stream")
	req.Header.Set("Last-Event-ID", "2")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	for _, want := range []string{`"seq":3`, `"seq":4`, `"seq":5`} {
		name, data := readEvent(t, br)
		if name != "snapshot" || !strings.Contains(data, want) {
			t.Fatalf("replay event = %q %q, want snapshot with %s", name, data, want)
		}
	}
	// The id: line precedes each event so the browser's Last-Event-ID
	// tracks the snapshot sequence. Trigger one more delta and check it.
	deadline := time.Now().Add(2 * time.Second)
	for r.hub.count() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	tickWithSample(r, k, 1, 99)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(line) != "id: 6" {
		t.Fatalf("delta frame first line = %q, want id: 6", line)
	}

	tickWithSample(r, k, 1, 100) // fold stream counters
	if got := m.Counter("fleet_stream_reconnects_total"); got != 1 {
		t.Fatalf("reconnects counter = %d, want 1", got)
	}
}

func TestSSEFreshConnectStillGetsSnapshotFirst(t *testing.T) {
	r := New(Config{})
	k := Key{Method: "udp", Browser: "chrome", Region: "us"}
	tickWithSample(r, k, 1, 5)
	srv := httptest.NewServer(r.LiveHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	name, data := readEvent(t, bufio.NewReader(resp.Body))
	if name != "snapshot" || !strings.Contains(data, `"seq":1`) {
		t.Fatalf("first event = %q %q", name, data)
	}
}

func TestSSEKeepAliveHeartbeat(t *testing.T) {
	r := New(Config{})
	r.keepAlive = 25 * time.Millisecond
	r.FanIn()
	srv := httptest.NewServer(r.LiveHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	deadline := time.Now().Add(3 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no :ka heartbeat on an idle stream")
		}
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("stream read: %v", err)
		}
		if strings.TrimSpace(line) == ":ka" {
			return
		}
	}
}

func TestDeltaSinkReceivesCoalescedTicks(t *testing.T) {
	var got []TickDelta
	r := New(Config{
		Shards: 8,
		DeltaSink: func(d TickDelta) {
			// Sketches are pooled after the call: capture what we need.
			cp := TickDelta{Seq: d.Seq, Sessions: d.Sessions}
			for _, dk := range d.Keys {
				dk.Sketch = obs.MergeSketches(dk.Sketch) // deep copy via fold
				cp.Keys = append(cp.Keys, dk)
			}
			got = append(got, cp)
		},
	})
	ka := Key{Method: "http-get", Browser: "chrome", Region: "us"}
	kb := Key{Method: "udp", Browser: "firefox", Region: "eu"}
	// Spread sessions across shards so coalescing has work to do.
	for id := uint64(1); id <= 40; id++ {
		r.Observe(id, ka, float64(id), false)
	}
	r.Observe(50, kb, 7, false)
	r.Observe(50, kb, 0, true) // lost
	r.FanIn()
	r.FanIn() // no new samples: ships a keys-empty heartbeat tick

	if len(got) != 2 {
		t.Fatalf("sink called %d times, want 2 (idle ticks ship heartbeats)", len(got))
	}
	if hb := got[1]; hb.Seq != 2 || len(hb.Keys) != 0 {
		t.Fatalf("idle tick = seq %d with %d keys, want seq 2 and no keys", hb.Seq, len(hb.Keys))
	}
	d := got[0]
	if d.Seq != 1 || d.Sessions != 41 {
		t.Fatalf("tick = seq %d sessions %d", d.Seq, d.Sessions)
	}
	if len(d.Keys) != 2 {
		t.Fatalf("keys = %d, want 2 (shards coalesced per key)", len(d.Keys))
	}
	if d.Keys[0].Key != ka || d.Keys[1].Key != kb {
		t.Fatalf("keys not sorted: %+v", d.Keys)
	}
	if d.Keys[0].Count != 40 || d.Keys[0].Lost != 0 || d.Keys[0].Sketch.Count() != 40 {
		t.Fatalf("key a delta = %+v (sketch %d)", d.Keys[0], d.Keys[0].Sketch.Count())
	}
	if d.Keys[1].Count != 2 || d.Keys[1].Lost != 1 || d.Keys[1].Sketch.Count() != 1 {
		t.Fatalf("key b delta = %+v", d.Keys[1])
	}

	// The tick delta must equal what reached the cumulative snapshot.
	snap := r.Snapshot()
	if snap.Keys[0].Count != 40 || snap.Keys[1].Count != 2 {
		t.Fatalf("snapshot diverged from sunk delta: %+v", snap.Keys)
	}
}
