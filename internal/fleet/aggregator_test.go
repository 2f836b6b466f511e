package fleet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/fleetwire"
	"github.com/browsermetric/browsermetric/internal/frame"
	"github.com/browsermetric/browsermetric/internal/obs"
)

func postFrames(t *testing.T, srv *httptest.Server, body []byte) int {
	t.Helper()
	resp, err := http.Post(srv.URL, "application/x-bmwf", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func encodeTick(t *testing.T, node string, seq uint64, sessions uint64, k Key, vals ...float64) []byte {
	t.Helper()
	return encodeTickEpoch(t, node, 0, seq, sessions, k, vals...)
}

func encodeTickEpoch(t *testing.T, node string, epoch, seq, sessions uint64, k Key, vals ...float64) []byte {
	t.Helper()
	s := obs.NewSketch()
	for _, v := range vals {
		s.Observe(v)
	}
	b, err := fleetwire.AppendFrame(nil, &fleetwire.Frame{
		Node: node, Epoch: epoch, Seq: seq, Sessions: sessions,
		Keys: []fleetwire.KeyDelta{{
			Method: k.Method, Browser: k.Browser, Region: k.Region,
			Count: uint64(len(vals)), Sketch: s,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestAggregatorMergesNodesIntoClusterSnapshot(t *testing.T) {
	a := NewAggregator(AggConfig{})
	srv := httptest.NewServer(a.IngestHandler())
	defer srv.Close()
	k := Key{Method: "http-get", Browser: "chrome", Region: "us"}

	if a.Ready() {
		t.Fatal("ready before any frame")
	}
	if code := postFrames(t, srv, encodeTick(t, "c1", 1, 10, k, 1, 2, 3)); code != 200 {
		t.Fatalf("ingest status = %d", code)
	}
	postFrames(t, srv, encodeTick(t, "c2", 1, 5, k, 100, 200))
	if !a.Ready() {
		t.Fatal("not ready after accepted frames")
	}

	snap := a.Publish()
	if snap.Seq != 1 || snap.Sessions != 15 {
		t.Fatalf("snapshot = seq %d sessions %d", snap.Seq, snap.Sessions)
	}
	if len(snap.Keys) != 2 {
		t.Fatalf("cluster keys = %d, want 2 (one per node)", len(snap.Keys))
	}
	if snap.Keys[0].Node != "c1" || snap.Keys[0].Count != 3 ||
		snap.Keys[1].Node != "c2" || snap.Keys[1].Count != 2 {
		t.Fatalf("rows = %+v", snap.Keys)
	}
	if len(snap.Nodes) != 2 || snap.Nodes[0].Node != "c1" || snap.Nodes[0].Stale {
		t.Fatalf("nodes = %+v", snap.Nodes)
	}
	// Second tick from c1 accumulates.
	postFrames(t, srv, encodeTick(t, "c1", 2, 10, k, 4, 5))
	snap = a.Publish()
	if snap.Keys[0].Count != 5 {
		t.Fatalf("c1 cumulative count = %d, want 5", snap.Keys[0].Count)
	}
}

func TestAggregatorDuplicateFrameAckedNotDoubleCounted(t *testing.T) {
	m := obs.NewMetrics()
	a := NewAggregator(AggConfig{Metrics: m})
	srv := httptest.NewServer(a.IngestHandler())
	defer srv.Close()
	k := Key{Method: "udp", Browser: "firefox", Region: "eu"}

	frame := encodeTick(t, "c1", 1, 3, k, 10, 20, 30)
	if code := postFrames(t, srv, frame); code != 200 {
		t.Fatalf("first delivery status = %d", code)
	}
	// A retry that raced its ack delivers the identical frame again: it
	// must be acknowledged (200, so the uplink stops retrying) but not
	// merged again.
	if code := postFrames(t, srv, frame); code != 200 {
		t.Fatalf("duplicate delivery status = %d, want 200 ack", code)
	}
	snap := a.Publish()
	if snap.Keys[0].Count != 3 {
		t.Fatalf("count = %d after duplicate, want 3", snap.Keys[0].Count)
	}
	if got := m.Counter("fleet_agg_frames_duplicate_total"); got != 1 {
		t.Fatalf("duplicate counter = %d", got)
	}
	if got := m.Counter("fleet_agg_frames_total"); got != 1 {
		t.Fatalf("merged counter = %d", got)
	}
}

// TestAggregatorRestartedCollectorMergesAgain: a collector that crashes
// and comes back resumes at seq 1 under a new epoch; the root must
// merge its frames rather than discard them as duplicates of the
// previous life, while a straggler frame from the old epoch (an
// in-flight retry that landed after the restart) still dedupes.
func TestAggregatorRestartedCollectorMergesAgain(t *testing.T) {
	m := obs.NewMetrics()
	a := NewAggregator(AggConfig{Metrics: m})
	srv := httptest.NewServer(a.IngestHandler())
	defer srv.Close()
	k := Key{Method: "http-get", Browser: "chrome", Region: "us"}

	postFrames(t, srv, encodeTickEpoch(t, "c1", 100, 5, 2, k, 1, 2))
	if code := postFrames(t, srv, encodeTickEpoch(t, "c1", 200, 1, 1, k, 3)); code != 200 {
		t.Fatalf("post-restart frame status = %d", code)
	}
	postFrames(t, srv, encodeTickEpoch(t, "c1", 100, 6, 2, k, 9, 9, 9))

	snap := a.Publish()
	if snap.Keys[0].Count != 3 {
		t.Fatalf("count = %d, want 3 (2 pre-restart + 1 post-restart, straggler skipped)", snap.Keys[0].Count)
	}
	if got := m.Counter("fleet_agg_node_restarts_total"); got != 1 {
		t.Fatalf("restart counter = %d, want 1", got)
	}
	if got := m.Counter("fleet_agg_frames_duplicate_total"); got != 1 {
		t.Fatalf("duplicate counter = %d, want 1 (the old-epoch straggler)", got)
	}
	if got := m.Counter("fleet_agg_frames_gap_total"); got != 0 {
		t.Fatalf("gap counter = %d, want 0 (a restart is not an uplink drop)", got)
	}
}

func TestAggregatorSequenceGapCounted(t *testing.T) {
	m := obs.NewMetrics()
	a := NewAggregator(AggConfig{Metrics: m})
	srv := httptest.NewServer(a.IngestHandler())
	defer srv.Close()
	k := Key{Method: "udp", Browser: "chrome", Region: "us"}
	postFrames(t, srv, encodeTick(t, "c1", 1, 1, k, 1))
	postFrames(t, srv, encodeTick(t, "c1", 4, 1, k, 2)) // 2 and 3 lost
	a.Publish()
	if got := m.Counter("fleet_agg_frames_gap_total"); got != 2 {
		t.Fatalf("gap counter = %d, want 2", got)
	}
}

func TestAggregatorRejectsVersionMismatchAndCorrupt(t *testing.T) {
	m := obs.NewMetrics()
	a := NewAggregator(AggConfig{Metrics: m})
	srv := httptest.NewServer(a.IngestHandler())
	defer srv.Close()
	k := Key{Method: "http-get", Browser: "opera", Region: "sa"}

	// Version bump, resealed: the frame is intact — just of a version
	// this root does not speak.
	future := withVersion(t, encodeTick(t, "c1", 1, 1, k, 5), fleetwire.Version+1)
	if code := postFrames(t, srv, future); code != 400 {
		t.Fatalf("version mismatch status = %d, want 400", code)
	}

	corrupt := encodeTick(t, "c1", 1, 1, k, 5)
	corrupt[len(corrupt)/2] ^= 0x01
	if code := postFrames(t, srv, corrupt); code != 400 {
		t.Fatalf("corrupt status = %d, want 400", code)
	}

	// A version-skipped frame must not block a good frame behind it in
	// the same body.
	mixed := append(append([]byte(nil), future...), encodeTick(t, "c1", 1, 1, k, 7)...)
	if code := postFrames(t, srv, mixed); code != 400 {
		t.Fatalf("mixed body status = %d (reject reported)", code)
	}

	snap := a.Publish()
	if len(snap.Keys) != 1 || snap.Keys[0].Count != 1 {
		t.Fatalf("cluster state = %+v, want only the good frame merged", snap.Keys)
	}
	if got := m.Counter(obs.L("fleet_agg_frames_rejected_total", "reason", "version")); got != 2 {
		t.Fatalf("version rejects = %d, want 2", got)
	}
	if got := m.Counter(obs.L("fleet_agg_frames_rejected_total", "reason", "corrupt")); got != 1 {
		t.Fatalf("corrupt rejects = %d, want 1", got)
	}
	if missing := m.FamiliesMissingHelp(); len(missing) != 0 {
		t.Fatalf("families missing help: %v", missing)
	}
}

// TestAggregatorVersionBitFlipIsCorrupt: a bit flip in the version field
// breaks the CRC (which covers the header), so it is counted as
// corruption, never as version skew — and since its length cannot be
// trusted, the frame behind it in the body is not merged.
func TestAggregatorVersionBitFlipIsCorrupt(t *testing.T) {
	m := obs.NewMetrics()
	a := NewAggregator(AggConfig{Metrics: m})
	srv := httptest.NewServer(a.IngestHandler())
	defer srv.Close()
	k := Key{Method: "http-get", Browser: "chrome", Region: "us"}

	flipped := encodeTick(t, "c1", 1, 1, k, 5)
	flipped[4] ^= 0x04
	body := append(flipped, encodeTick(t, "c1", 2, 1, k, 7)...)
	if code := postFrames(t, srv, body); code != 400 {
		t.Fatalf("status = %d, want 400", code)
	}
	if snap := a.Publish(); len(snap.Keys) != 0 {
		t.Fatalf("cluster state = %+v, want nothing merged after the corrupt frame", snap.Keys)
	}
	if got := m.Counter(obs.L("fleet_agg_frames_rejected_total", "reason", "corrupt")); got != 1 {
		t.Fatalf("corrupt rejects = %d, want 1", got)
	}
	if got := m.Counter(obs.L("fleet_agg_frames_rejected_total", "reason", "version")); got != 0 {
		t.Fatalf("version rejects = %d, want 0", got)
	}
}

// withVersion rewrites a frame's version field and reseals it, giving
// an intact frame of another version.
func withVersion(t *testing.T, b []byte, v uint16) []byte {
	t.Helper()
	binary.LittleEndian.PutUint16(b[4:], v)
	c := frame.Codec{MaxPayload: fleetwire.MaxPayload}
	b, err := c.Seal(b[:len(b)-frame.TrailerLen], 0)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAggregatorStaleNodeDoesNotWedgeMerges: a collector that vanishes
// mid-stream goes stale (and its sessions leave the total) while other
// nodes keep merging normally.
func TestAggregatorStaleNodeDoesNotWedgeMerges(t *testing.T) {
	a := NewAggregator(AggConfig{StaleAfter: 30 * time.Millisecond})
	srv := httptest.NewServer(a.IngestHandler())
	defer srv.Close()
	k := Key{Method: "websocket", Browser: "chrome", Region: "ap"}

	postFrames(t, srv, encodeTick(t, "gone", 1, 7, k, 1, 2))
	postFrames(t, srv, encodeTick(t, "alive", 1, 3, k, 10))
	snap := a.Publish()
	if snap.Sessions != 10 || len(snap.Nodes) != 2 {
		t.Fatalf("fresh snapshot = %+v", snap)
	}

	time.Sleep(50 * time.Millisecond)
	// "gone" is silent past the threshold; "alive" keeps reporting.
	postFrames(t, srv, encodeTick(t, "alive", 2, 3, k, 11))
	snap = a.Publish()
	var goneStale, aliveStale bool
	for _, n := range snap.Nodes {
		if n.Node == "gone" {
			goneStale = n.Stale
		}
		if n.Node == "alive" {
			aliveStale = n.Stale
		}
	}
	if !goneStale || aliveStale {
		t.Fatalf("staleness = gone:%v alive:%v", goneStale, aliveStale)
	}
	if snap.Sessions != 3 {
		t.Fatalf("sessions = %d, want stale node excluded", snap.Sessions)
	}
	// The stale node's cumulative aggregates remain visible.
	if len(snap.Keys) != 2 || snap.Keys[1].Count != 2 {
		t.Fatalf("cluster keys after staleness = %+v", snap.Keys)
	}
	// And it can come back: a late frame revives it.
	postFrames(t, srv, encodeTick(t, "gone", 2, 7, k, 3))
	if snap = a.Publish(); snap.Sessions != 10 {
		t.Fatalf("revived sessions = %d", snap.Sessions)
	}
}

// TestClusterEquivalence is the multi-node acceptance property: three
// real collectors (Registry + Uplink) feeding a root over HTTP produce
// per-node cluster rows identical to each collector's own single-node
// snapshot — same counts and the very same quantile answers, because
// the wire ships exact sketch state. It runs with tick deltas that stay
// in a sketch's insert buffer and with ones large enough to ship
// compressed tuples.
func TestClusterEquivalence(t *testing.T) {
	for _, perTick := range []int{50, 3000} {
		t.Run(fmt.Sprint(perTick), func(t *testing.T) { checkClusterEquivalence(t, perTick) })
	}
}

func checkClusterEquivalence(t *testing.T, perTick int) {
	aggM := obs.NewMetrics()
	a := NewAggregator(AggConfig{Metrics: aggM})
	ingest := httptest.NewServer(a.IngestHandler())
	defer ingest.Close()

	k1 := Key{Method: "http-get", Browser: "chrome", Region: "us"}
	k2 := Key{Method: "udp", Browser: "firefox", Region: "eu"}
	nodes := []string{"c1", "c2", "c3"}
	regs := make([]*Registry, len(nodes))
	const ticks = 4
	for i, name := range nodes {
		m := obs.NewMetrics()
		u, err := NewUplink(UplinkConfig{Node: name, URL: ingest.URL, Metrics: m})
		if err != nil {
			t.Fatal(err)
		}
		defer u.Stop()
		r := New(Config{DeltaSink: u.Sink, Metrics: m})
		regs[i] = r
		// Distinct per-node sample streams across several ticks.
		for tick := 0; tick < ticks; tick++ {
			for s := 0; s < perTick; s++ {
				id := uint64(s + 1)
				regs[i].Observe(id, k1, float64((i+1)*100+tick*10+s%7)+float64(s*s%1013)/7, false)
				if s%5 == 0 {
					regs[i].Observe(id, k2, float64(i*3+s), s%10 == 0)
				}
			}
			r.FanIn()
		}
		// An empty queue is not enough: the last batch may still be in
		// flight. Wait until the root has acknowledged every tick's frame.
		waitFor(t, name+" uplink drain", func() bool { return m.Counter("fleet_uplink_shipped_total") == ticks })
	}

	snap := a.Publish()
	if got := len(snap.Keys); got != len(nodes)*2 {
		t.Fatalf("cluster rows = %d, want %d", got, len(nodes)*2)
	}
	for i, name := range nodes {
		local := regs[i].Snapshot()
		var clusterRows []KeyStats
		for _, ks := range snap.Keys {
			if ks.Node == name {
				clusterRows = append(clusterRows, ks)
			}
		}
		if len(clusterRows) != len(local.Keys) {
			t.Fatalf("%s: cluster rows = %d, local = %d", name, len(clusterRows), len(local.Keys))
		}
		for j, ks := range clusterRows {
			lk := local.Keys[j]
			ks.Node = ""
			if ks != lk {
				t.Fatalf("%s key %d diverged:\ncluster %+v\nlocal   %+v", name, j, ks, lk)
			}
		}
	}
}

// TestAggregatorMetricsByteStable: two consecutive scrapes of an idle
// aggregator produce identical bytes.
func TestAggregatorMetricsByteStable(t *testing.T) {
	m := obs.NewMetrics()
	a := NewAggregator(AggConfig{Metrics: m})
	srv := httptest.NewServer(a.IngestHandler())
	defer srv.Close()
	k := Key{Method: "http-get", Browser: "chrome", Region: "us"}
	postFrames(t, srv, encodeTick(t, "c1", 1, 2, k, 1, 2, 3))
	a.Publish()

	var one, two strings.Builder
	if err := m.WritePrometheus(&one); err != nil {
		t.Fatal(err)
	}
	if err := m.WritePrometheus(&two); err != nil {
		t.Fatal(err)
	}
	if one.String() != two.String() {
		t.Fatal("consecutive scrapes differ")
	}
	if !strings.Contains(one.String(), "fleet_agg_frames_total 1") {
		t.Fatalf("exposition missing merged frame count:\n%s", one.String())
	}
}
