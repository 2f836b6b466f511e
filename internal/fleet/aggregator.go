package fleet

import (
	"errors"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/browsermetric/browsermetric/internal/fleetwire"
	"github.com/browsermetric/browsermetric/internal/frame"
	"github.com/browsermetric/browsermetric/internal/obs"
)

// AggConfig tunes an Aggregator.
type AggConfig struct {
	// Interval is the snapshot publish period for Start (default 1s).
	Interval time.Duration
	// StaleAfter is how long a node may stay silent before it is
	// reported stale and its sessions leave the cluster total
	// (default 3×Interval). Its cumulative aggregates remain.
	StaleAfter time.Duration
	// Metrics receives the fleet_agg_* and fleet_stream_* series.
	Metrics *obs.Metrics
	// HistoryDepth bounds the dashboard history ring: how many past
	// snapshots /live/history retains and Last-Event-ID reconnects can
	// replay (default 64).
	HistoryDepth int
	// HistoryEvery subsamples history recording: every Nth changed
	// snapshot enters the ring (default 1, i.e. all of them). Raising it
	// trades scrub resolution for a longer covered window at the same
	// memory bound.
	HistoryEvery int
}

// maxIngestBody bounds one ingest POST.
const maxIngestBody = 256 << 20

// nodeKey is the cluster aggregate key: which node reported the series.
type nodeKey struct {
	node string
	key  Key
}

func nodeKeyLess(a, b nodeKey) bool {
	if a.node != b.node {
		return a.node < b.node
	}
	return keyLess(a.key, b.key)
}

// nodeState is per-collector liveness bookkeeping. Sequence numbers
// are tracked per epoch (the collector's boot id): a frame from a newer
// epoch resets the high-water mark so a restarted collector's frames
// merge again instead of reading as duplicates of its previous life.
type nodeState struct {
	epoch    uint64
	lastSeq  uint64
	lastAt   time.Time
	sessions uint64
}

// NodeStatus is one collector's liveness row in a cluster snapshot.
type NodeStatus struct {
	Node     string  `json:"node"`
	Sessions uint64  `json:"sessions"`
	LastSeq  uint64  `json:"last_seq"`
	AgeMs    float64 `json:"age_ms"`
	Stale    bool    `json:"stale"`
}

// Aggregator is the root of the multi-node fleet plane: it accepts
// fleetwire frames POSTed by collector uplinks, merges each node's tick
// deltas into cluster-wide cumulative sketches keyed by (node, method,
// browser, region), and publishes periodic snapshots to the same live
// view (SSE dashboard, /live/history) a single-node Registry serves.
//
// Duplicate frames (a retry that raced its ack) are detected by the
// per-node sequence number and acknowledged without merging; sequence
// gaps (frames lost to an uplink overflow) are counted. A node that
// stops reporting goes stale — surfaced in the snapshot — without ever
// wedging the merge loop.
type Aggregator struct {
	*liveView
	cfg   AggConfig
	ready obs.Readiness

	mu      sync.Mutex
	nodes   map[string]*nodeState
	globals map[nodeKey]*Agg
	// Tick-local ingest counters, drained into obs.Metrics at publish.
	frames, dups, gaps uint64
	restarts           uint64
	rejCorrupt, rejVer uint64

	pubMu      sync.Mutex
	seq        uint64
	prevCounts map[nodeKey]uint64

	tick ticker
}

// NewAggregator builds an Aggregator and registers its metric help.
func NewAggregator(cfg AggConfig) *Aggregator {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.StaleAfter <= 0 {
		cfg.StaleAfter = 3 * cfg.Interval
	}
	a := &Aggregator{
		liveView:   newLiveView(cfg.HistoryDepth, cfg.HistoryEvery),
		cfg:        cfg,
		nodes:      make(map[string]*nodeState),
		globals:    make(map[nodeKey]*Agg),
		prevCounts: make(map[nodeKey]uint64),
	}
	registerFleetHelp(cfg.Metrics)
	registerAggHelp(cfg.Metrics)
	return a
}

func registerAggHelp(m *obs.Metrics) {
	if !m.Enabled() {
		return
	}
	m.SetHelp("fleet_agg_nodes", "Collector nodes the aggregator has heard from.")
	m.SetHelp("fleet_agg_nodes_stale", "Nodes past the staleness threshold.")
	m.SetHelp("fleet_agg_keys", "Distinct (node, method, browser, region) cluster series.")
	m.SetHelp("fleet_agg_frames_total", "Frames merged into cluster aggregates.")
	m.SetHelp("fleet_agg_frames_duplicate_total", "Frames acknowledged but skipped as duplicates (retry races).")
	m.SetHelp("fleet_agg_frames_gap_total", "Sequence numbers skipped by arriving frames (uplink drops).")
	m.SetHelp("fleet_agg_node_restarts_total", "Collector restarts observed (a frame arrived with a newer epoch).")
	m.SetHelp("fleet_agg_frames_rejected_total", "Frames rejected at ingest, by reason.")
	m.SetHelp("fleet_agg_publish_ms", "Wall-clock duration of one cluster publish pass in milliseconds.")
	m.SetHelp("fleet_agg_sessions", "Live sessions summed over fresh (non-stale) nodes.")
}

// Ready reports whether at least one frame has been accepted — the
// root's /readyz condition.
func (a *Aggregator) Ready() bool { return a.ready.Ready() }

// IngestHandler accepts POSTed fleetwire frames (one or more,
// back-to-back, in one body). The whole body is parsed; merged and
// duplicate frames are acknowledged. Any rejected frame (corrupt bytes
// or a version mismatch) fails the request with 400 so a well-behaved
// uplink drops rather than endlessly retries it — frames already merged
// from the same body stay merged, and their retry would dedupe anyway.
func (a *Aggregator) IngestHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "POST frames", http.StatusMethodNotAllowed)
			return
		}
		body, err := io.ReadAll(io.LimitReader(req.Body, maxIngestBody+1))
		if err != nil || len(body) > maxIngestBody {
			http.Error(w, "bad body", http.StatusBadRequest)
			return
		}
		rejected := false
		for len(body) > 0 {
			f, n, err := fleetwire.DecodeFrame(body)
			switch {
			case err == nil:
				a.apply(f)
				body = body[n:]
			case errors.Is(err, frame.ErrVersion) && n > 0:
				// Intact frame of another version: skippable, so
				// later frames in the body still merge.
				a.countReject("version")
				rejected = true
				body = body[n:]
			default:
				// Corrupt or torn: the rest of the body is unparseable.
				a.countReject("corrupt")
				rejected = true
				body = nil
			}
		}
		if rejected {
			http.Error(w, "rejected frames", http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
}

func (a *Aggregator) countReject(reason string) {
	a.mu.Lock()
	if reason == "version" {
		a.rejVer++
	} else {
		a.rejCorrupt++
	}
	a.mu.Unlock()
}

// apply merges one decoded frame into the cluster state. Duplicates
// (same epoch, seq at or below the node's high-water mark) are counted
// and skipped; a frame from a newer epoch is a collector restart, so
// the sequence high-water mark resets and its frames merge again. A
// frame from an older epoch is a straggler from the previous life (an
// in-flight retry that landed after the restart): it is acknowledged
// as a duplicate rather than merged, since the new epoch has already
// taken over the node's row.
func (a *Aggregator) apply(f *fleetwire.Frame) {
	now := time.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	ns := a.nodes[f.Node]
	if ns == nil {
		ns = &nodeState{epoch: f.Epoch}
		a.nodes[f.Node] = ns
	}
	switch {
	case f.Epoch < ns.epoch:
		a.dups++
		ns.lastAt = now // stale-epoch straggler; the node itself is alive
		return
	case f.Epoch > ns.epoch:
		ns.epoch = f.Epoch
		ns.lastSeq = 0
		a.restarts++
	}
	if f.Seq <= ns.lastSeq {
		a.dups++
		ns.lastAt = now // the node is alive, just retrying
		return
	}
	if ns.lastSeq != 0 && f.Seq > ns.lastSeq+1 {
		a.gaps += f.Seq - ns.lastSeq - 1
	}
	ns.lastSeq = f.Seq
	ns.lastAt = now
	ns.sessions = f.Sessions
	for i := range f.Keys {
		kd := &f.Keys[i]
		nk := nodeKey{node: f.Node, key: Key{Method: kd.Method, Browser: kd.Browser, Region: kd.Region}}
		mergeInto(a.globals, nk, &Agg{
			Sketch: kd.Sketch, Count: kd.Count, Lost: kd.Lost,
			JitterSum: kd.JitterSum, JitterN: kd.JitterN,
		})
	}
	a.frames++
	a.ready.MarkReady()
}

// Publish builds and publishes one cluster snapshot: every (node, key)
// series' cumulative stats plus per-node liveness, with stale nodes'
// sessions excluded from the cluster total. It is the aggregator's
// analog of Registry.FanIn and serializes against itself.
func (a *Aggregator) Publish() Snapshot {
	a.pubMu.Lock()
	defer a.pubMu.Unlock()
	start := time.Now()

	type row struct {
		nk nodeKey
		ks KeyStats
	}
	a.mu.Lock()
	rows := make([]row, 0, len(a.globals))
	for nk, g := range a.globals {
		ks := g.stats(nk.key)
		ks.Node = nk.node
		rows = append(rows, row{nk: nk, ks: ks})
	}
	var sessions uint64
	nodes := make([]NodeStatus, 0, len(a.nodes))
	var stale int
	for name, ns := range a.nodes {
		age := time.Since(ns.lastAt)
		st := NodeStatus{
			Node: name, Sessions: ns.sessions, LastSeq: ns.lastSeq,
			AgeMs: float64(age) / float64(time.Millisecond),
			Stale: age > a.cfg.StaleAfter,
		}
		if st.Stale {
			stale++
		} else {
			sessions += ns.sessions
		}
		nodes = append(nodes, st)
	}
	frames, dups, gaps, restarts := a.frames, a.dups, a.gaps, a.restarts
	rejC, rejV := a.rejCorrupt, a.rejVer
	a.frames, a.dups, a.gaps, a.restarts, a.rejCorrupt, a.rejVer = 0, 0, 0, 0, 0, 0
	nNodes, nKeys := len(a.nodes), len(a.globals)
	a.mu.Unlock()

	sort.Slice(rows, func(i, j int) bool { return nodeKeyLess(rows[i].nk, rows[j].nk) })
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Node < nodes[j].Node })

	a.seq++
	snap := Snapshot{Seq: a.seq, Sessions: int(sessions), Nodes: nodes}
	snap.Keys = make([]KeyStats, 0, len(rows))
	for _, r := range rows {
		snap.Keys = append(snap.Keys, r.ks)
	}
	delta := Snapshot{Seq: snap.Seq, Sessions: snap.Sessions, Nodes: nodes}
	for i, r := range rows {
		if a.prevCounts[r.nk] != r.ks.Count {
			delta.Keys = append(delta.Keys, snap.Keys[i])
			a.prevCounts[r.nk] = r.ks.Count
		}
	}
	a.liveView.publish(snap, delta)

	took := time.Since(start)
	if m := a.cfg.Metrics; m.Enabled() {
		m.Set("fleet_agg_nodes", float64(nNodes))
		m.Set("fleet_agg_nodes_stale", float64(stale))
		m.Set("fleet_agg_keys", float64(nKeys))
		m.Set("fleet_agg_sessions", float64(sessions))
		m.Add("fleet_agg_frames_total", int64(frames))
		m.Add("fleet_agg_frames_duplicate_total", int64(dups))
		m.Add("fleet_agg_frames_gap_total", int64(gaps))
		m.Add("fleet_agg_node_restarts_total", int64(restarts))
		m.Add(obs.L("fleet_agg_frames_rejected_total", "reason", "corrupt"), int64(rejC))
		m.Add(obs.L("fleet_agg_frames_rejected_total", "reason", "version"), int64(rejV))
		m.SketchDur("fleet_agg_publish_ms", took)
		meterStream(m, a.liveView)
	}
	return snap
}

// Start launches the periodic publish ticker.
func (a *Aggregator) Start() { a.tick.start(a.cfg.Interval, func() { a.Publish() }) }

// Stop halts the ticker, then publishes once more so every merged frame
// reaches the snapshot.
func (a *Aggregator) Stop() { a.tick.halt(func() { a.Publish() }) }
