// Package fleet is the fleet-scale aggregation plane: it folds delay
// samples from very many concurrent client sessions into bounded
// per-(method, browser, region) state and periodically fans the shards
// into a global snapshot that the streaming dashboard and the Prometheus
// exposition read.
//
// The design follows the scaling constraints the ROADMAP's live-platform
// item imposes:
//
//   - ingest is sharded: sessions hash to one of a power-of-two number of
//     shards, each with its own lock, so 100k concurrent writers contend
//     only within a shard;
//   - per-session state is bounded (a 16-byte record: the previous
//     delay, for jitter, and the shard slot of the session's last key)
//     and the session population is capped — over-cap sessions are
//     rejected and counted, never queued. Records live in a per-shard
//     slab indexed by session id; ended sessions' records are reused.
//     Admission takes a place under the cap with one CAS, so concurrent
//     admissions in different shards cannot overshoot it;
//   - a sample whose session keeps its key costs one map probe: the
//     record's cached slot is checked against the key, and the shard's
//     key map is consulted only on a first sample or a key change;
//   - per-shard aggregates are *delta* sketches, which in practice hold
//     a few buffered raw values per key and tick (a sketch compresses
//     only once sketchBufCap values arrive). The fan-in pass swaps each
//     one for the slot's reset spare, groups the taken deltas by key in
//     shard order and folds them into one per-key tick delta, then into
//     the collector-owned cumulative summary. Merging buffered values is
//     an exact append, so fan-in cost grows with samples and keys, not
//     with shards × keys;
//   - self-metering follows Mizrahi et al.'s observer-effect rule: the
//     per-sample hot path touches no metrics registry at all. Shard-local
//     counters are folded into obs.Metrics only at fan-in ticks, and the
//     fan-in pass times itself (fleet_fanin_ms).
package fleet

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/browsermetric/browsermetric/internal/obs"
)

// Key identifies one aggregate series: the measurement method, the
// client browser model, and the client region.
type Key struct {
	Method  string
	Browser string
	Region  string
}

func keyLess(a, b Key) bool { return keyCmp(a, b) < 0 }

func keyCmp(a, b Key) int {
	if c := strings.Compare(a.Method, b.Method); c != 0 {
		return c
	}
	if c := strings.Compare(a.Browser, b.Browser); c != 0 {
		return c
	}
	return strings.Compare(a.Region, b.Region)
}

// Config tunes a Registry.
type Config struct {
	// Shards is the shard count, rounded up to a power of two
	// (default 16). More shards mean less ingest contention and a
	// slightly longer fan-in pass.
	Shards int
	// MaxSessions caps the live session population (default 262144).
	// Observe calls for new sessions beyond the cap are rejected and
	// counted in fleet_sessions_rejected_total.
	MaxSessions int
	// Interval is the fan-in period for Start (default 1s). FanIn can
	// always be called manually, ticker or not.
	Interval time.Duration
	// Metrics receives the fleet_* self-metering series at each fan-in
	// tick. nil disables metering at zero cost.
	Metrics *obs.Metrics
	// DeltaSink, when set, receives every fan-in tick's coalesced
	// per-key deltas synchronously at the end of the pass — the hook
	// the uplink ships multi-node frames from. Idle ticks arrive with
	// Keys empty (a heartbeat carrying just the sequence number and
	// session count). The Keys slice and its sketches are reused by the
	// next tick: they are valid only for the duration of the call and
	// must not be retained (encode them, don't keep them).
	DeltaSink func(TickDelta)
}

// Agg is one key's aggregate: the delay sketch plus the sample, loss
// and jitter counters a KeyStats row derives from. The same type holds
// a shard's delta since the last fan-in, a tick's coalesced delta and a
// cumulative series, so there is one merge (add) for every fold.
type Agg struct {
	Sketch    *obs.Sketch
	Count     uint64
	Lost      uint64
	JitterSum float64
	JitterN   uint64
}

// add folds b into a.
func (a *Agg) add(b *Agg) {
	a.Sketch.Merge(b.Sketch)
	a.Count += b.Count
	a.Lost += b.Lost
	a.JitterSum += b.JitterSum
	a.JitterN += b.JitterN
}

// DeltaKey is one key's aggregate delta for a single fan-in tick. Its
// Sketch is valid only during the sink call.
type DeltaKey struct {
	Key Key
	Agg
}

// TickDelta is everything one fan-in tick added: the tick's sequence
// number, the live session count, and the per-key deltas.
type TickDelta struct {
	Seq      uint64
	Sessions int
	Keys     []DeltaKey
}

// session is the bounded per-client state: just enough to turn the next
// delay sample into a jitter increment, plus the index in its shard's
// slots of the aggregate its last sample went to (-1 before the first
// sample), so a session whose key stays the same skips the key hash.
type session struct {
	last    float64
	slot    int32
	hasLast bool
}

// shardAgg is one key's delta in a shard since the last fan-in, plus
// the reset sketch the next fan-in swaps in. Each slot alternates
// between its two sketches, so their buffers keep the capacity that
// slot needs. Only FanIn touches spare and the sketch it points to.
// key and idx record which key the slot holds and where it sits in the
// shard's slots.
type shardAgg struct {
	Agg
	spare *obs.Sketch
	key   Key
	idx   int32
}

// shard holds one lock's worth of sessions and delta aggregates.
// Sessions live in a slab indexed through ids; End pushes a freed
// record on free and admission pops it. Aggregates live in slots in
// creation order; aggs indexes them by key.
type shard struct {
	mu    sync.Mutex
	ids   map[uint64]int32
	slab  []session
	free  []int32
	aggs  map[Key]*shardAgg
	slots []*shardAgg

	// Tick-local event counters, drained at fan-in.
	started  uint64
	ended    uint64
	rejected uint64
	samples  uint64
	lost     uint64
}

// Registry is the fleet aggregation plane. Observe/End are safe for
// arbitrary concurrent use; FanIn may run concurrently with ingest but
// serializes against itself. The embedded liveView provides Snapshot,
// LiveHandler, HistoryHandler and History.
type Registry struct {
	*liveView

	cfg    Config
	mask   uint64
	shards []*shard
	active atomic.Int64

	fanMu   sync.Mutex
	globals map[Key]*Agg // collector-owned cumulative aggregates
	ticks   map[Key]*Agg // per-key tick deltas, reset after each pass
	// Per-pass scratch, kept so a steady-state pass does not regrow it:
	// the taken shard deltas, the distinct keys and the tick deltas.
	taken  []DeltaKey
	keys   []Key
	deltas []DeltaKey
	seq    uint64
	// prevCounts lets FanIn compute which keys changed since the last
	// snapshot — the delta the stream pushes.
	prevCounts map[Key]uint64

	tick ticker
}

// New builds a Registry and registers the fleet_* metric help text.
func New(cfg Config) *Registry {
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	n := 1
	for n < cfg.Shards {
		n <<= 1
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 262144
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	r := &Registry{
		liveView:   newLiveView(defaultHistoryDepth, 1),
		cfg:        cfg,
		mask:       uint64(n - 1),
		shards:     make([]*shard, n),
		globals:    make(map[Key]*Agg),
		ticks:      make(map[Key]*Agg),
		prevCounts: make(map[Key]uint64),
	}
	for i := range r.shards {
		r.shards[i] = &shard{
			ids:  make(map[uint64]int32),
			aggs: make(map[Key]*shardAgg),
		}
	}
	registerFleetHelp(cfg.Metrics)
	return r
}

func registerFleetHelp(m *obs.Metrics) {
	if !m.Enabled() {
		return
	}
	m.SetHelp("fleet_sessions_active", "Live probe sessions currently tracked by the fleet registry.")
	m.SetHelp("fleet_sessions_started_total", "Probe sessions admitted since start.")
	m.SetHelp("fleet_sessions_ended_total", "Probe sessions ended since start.")
	m.SetHelp("fleet_sessions_rejected_total", "Probe sessions rejected because the session cap was reached.")
	m.SetHelp("fleet_samples_total", "Delay samples folded into shard aggregates.")
	m.SetHelp("fleet_samples_lost_total", "Samples reported as lost probes.")
	m.SetHelp("fleet_keys", "Distinct (method, browser, region) aggregate keys.")
	m.SetHelp("fleet_fanin_total", "Fan-in passes completed.")
	m.SetHelp("fleet_fanin_ms", "Wall-clock duration of one fan-in pass in milliseconds (streaming quantile sketch).")
	m.SetHelp("fleet_stream_subscribers", "Live SSE dashboard subscribers.")
	m.SetHelp("fleet_stream_events_total", "SSE events delivered to subscribers.")
	m.SetHelp("fleet_stream_dropped_total", "SSE events dropped because a subscriber buffer was full.")
	m.SetHelp("fleet_stream_bytes_total", "Bytes of SSE event payload delivered to subscribers.")
	m.SetHelp("fleet_stream_reconnects_total", "SSE subscribers that resumed with Last-Event-ID.")
	m.SetHelp("fleet_history_snapshots", "Snapshots retained in the dashboard history ring.")
}

func (r *Registry) shardFor(id uint64) *shard {
	// Fibonacci hash spreads sequential session ids across shards.
	return r.shards[(id*0x9e3779b97f4a7c15)>>32&r.mask]
}

// Observe folds one sample from a session into its shard: the delay (ms)
// into the key's delta sketch, the |Δdelay| jitter increment against the
// session's previous delay, and the loss flag. Unknown sessions are
// admitted on first sight; it reports false (and counts a rejection)
// when the session cap is reached. Lost probes carry no delay: only the
// loss counter moves.
//
// A session's record caches the slot of the key its last sample went
// to, so with a steady key the sample costs one map probe (the session
// id); the key map is consulted only on a first sample or a key change.
func (r *Registry) Observe(id uint64, key Key, delayMs float64, lost bool) bool {
	sh := r.shardFor(id)
	sh.mu.Lock()
	i, ok := sh.ids[id]
	if !ok {
		if !r.admit() {
			sh.rejected++
			sh.mu.Unlock()
			return false
		}
		sh.started++
		i = sh.newSession(id)
	}
	s := &sh.slab[i]
	var a *shardAgg
	if s.slot >= 0 {
		a = sh.slots[s.slot]
	}
	if a == nil || a.key != key {
		a = sh.agg(key)
		s.slot = a.idx
	}
	sh.samples++
	a.Count++
	if lost {
		sh.lost++
		a.Lost++
	} else {
		a.Sketch.Observe(delayMs)
		if s.hasLast {
			d := delayMs - s.last
			if d < 0 {
				d = -d
			}
			a.JitterSum += d
			a.JitterN++
		}
		s.last = delayMs
		s.hasLast = true
	}
	sh.mu.Unlock()
	return true
}

// admit takes one place under the session cap, or reports false when
// the cap is reached. The check and the increment are one CAS, so
// concurrent admissions in different shards cannot both take the last
// place.
func (r *Registry) admit() bool {
	limit := int64(r.cfg.MaxSessions)
	for {
		n := r.active.Load()
		if n >= limit {
			return false
		}
		if r.active.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// newSession gives id a fresh record, reusing a freed one when there is
// one, and returns its slab index. The caller holds sh.mu.
func (sh *shard) newSession(id uint64) int32 {
	var i int32
	if n := len(sh.free); n > 0 {
		i = sh.free[n-1]
		sh.free = sh.free[:n-1]
		sh.slab[i] = session{slot: -1}
	} else {
		i = int32(len(sh.slab))
		sh.slab = append(sh.slab, session{slot: -1})
	}
	sh.ids[id] = i
	return i
}

// agg returns the shard's aggregate for key, creating it on first
// sight. The caller holds sh.mu.
func (sh *shard) agg(key Key) *shardAgg {
	a := sh.aggs[key]
	if a == nil {
		a = &shardAgg{Agg: Agg{Sketch: obs.NewSketch()}, key: key, idx: int32(len(sh.slots))}
		sh.aggs[key] = a
		sh.slots = append(sh.slots, a)
	}
	return a
}

// End removes a session, freeing its place under the cap and its
// record for reuse. Ending an unknown session is a no-op.
func (r *Registry) End(id uint64) {
	sh := r.shardFor(id)
	sh.mu.Lock()
	if i, ok := sh.ids[id]; ok {
		delete(sh.ids, id)
		sh.free = append(sh.free, i)
		sh.ended++
		r.active.Add(-1)
	}
	sh.mu.Unlock()
}

// Sessions returns the live session count.
func (r *Registry) Sessions() int { return int(r.active.Load()) }

// KeyStats is one key's cumulative aggregate in a snapshot. Node is set
// only in cluster (Aggregator) snapshots; single-node registries leave
// it empty.
type KeyStats struct {
	Node     string  `json:"node,omitempty"`
	Method   string  `json:"method"`
	Browser  string  `json:"browser"`
	Region   string  `json:"region"`
	Count    uint64  `json:"count"`
	Lost     uint64  `json:"lost"`
	P50      float64 `json:"p50_ms"`
	P95      float64 `json:"p95_ms"`
	P99      float64 `json:"p99_ms"`
	JitterMs float64 `json:"jitter_ms"`
	LossRate float64 `json:"loss_rate"`
}

// Snapshot is the global state after a fan-in pass. Keys are sorted by
// (method, browser, region) — (node, method, browser, region) in
// cluster snapshots — so equal states render identically. Nodes is set
// only by the Aggregator.
type Snapshot struct {
	Seq      uint64       `json:"seq"`
	Sessions int          `json:"sessions"`
	Keys     []KeyStats   `json:"keys"`
	Nodes    []NodeStatus `json:"nodes,omitempty"`
}

// FanIn runs one collector pass: every shard's delta aggregates are
// swapped out under the shard lock (ingest blocks only for the swap, not
// the merge), merged into the cumulative per-key summaries, and
// published as a new snapshot plus a changed-keys delta on the live
// stream. Shard event counters and the pass's own duration are folded
// into the metrics registry here — the only place the fleet plane
// touches obs.Metrics.
func (r *Registry) FanIn() Snapshot {
	r.fanMu.Lock()
	defer r.fanMu.Unlock()
	start := time.Now()

	var started, ended, rejected, samples, lost uint64
	taken := r.taken[:0]
	for _, sh := range r.shards {
		sh.mu.Lock()
		for _, a := range sh.slots {
			if a.Count == 0 {
				continue
			}
			if a.spare == nil {
				a.spare = obs.NewSketch()
			}
			taken = append(taken, DeltaKey{Key: a.key, Agg: a.Agg})
			a.Agg, a.spare = Agg{Sketch: a.spare}, a.Sketch
		}
		started += sh.started
		ended += sh.ended
		rejected += sh.rejected
		samples += sh.samples
		lost += sh.lost
		sh.started, sh.ended, sh.rejected, sh.samples, sh.lost = 0, 0, 0, 0, 0
		sh.mu.Unlock()
	}

	// Merge outside every shard lock. Shard deltas fold into one tick
	// delta per key (the unit the uplink ships) in shard order, since
	// taken lists each shard's keys in turn; the tick deltas then fold
	// into the cumulative summaries in sorted key order. The fold order
	// is fixed, so equal ingest histories produce identical cumulative
	// sketches. Only the distinct keys are sorted.
	keys := r.keys[:0]
	for i := range taken {
		t := &taken[i]
		d := r.ticks[t.Key]
		if d == nil {
			d = &Agg{Sketch: obs.NewSketch()}
			r.ticks[t.Key] = d
		}
		if d.Count == 0 {
			keys = append(keys, t.Key)
		}
		d.add(&t.Agg)
		t.Sketch.Reset()
	}
	slices.SortFunc(keys, keyCmp)
	deltas := r.deltas[:0]
	for _, k := range keys {
		d := r.ticks[k]
		// Compress the tick delta before folding it: the cumulative
		// summary then absorbs the very tuples the uplink encodes, so a
		// root that decodes the frame folds bit-identical state.
		d.Sketch.Flush()
		deltas = append(deltas, DeltaKey{Key: k, Agg: *d})
	}
	for i := range deltas {
		mergeInto(r.globals, deltas[i].Key, &deltas[i].Agg)
	}

	r.seq++
	snap := Snapshot{Seq: r.seq, Sessions: r.Sessions()}
	snap.Keys = make([]KeyStats, 0, len(r.globals))
	for k, g := range r.globals {
		snap.Keys = append(snap.Keys, g.stats(k))
	}
	sort.Slice(snap.Keys, func(i, j int) bool {
		a, b := snap.Keys[i], snap.Keys[j]
		return keyLess(Key{a.Method, a.Browser, a.Region}, Key{b.Method, b.Browser, b.Region})
	})

	delta := Snapshot{Seq: snap.Seq, Sessions: snap.Sessions}
	for _, ks := range snap.Keys {
		k := Key{ks.Method, ks.Browser, ks.Region}
		if r.prevCounts[k] != ks.Count {
			delta.Keys = append(delta.Keys, ks)
			r.prevCounts[k] = ks.Count
		}
	}

	r.liveView.publish(snap, delta)

	// Hand the tick deltas to the uplink sink (synchronously: the sink
	// encodes and returns, it must not block on the network), then reset
	// them for the next tick. Idle ticks ship too — a
	// keys-empty frame is a few dozen bytes and keeps the uplink
	// sequence dense (so root-side gap counting means real drops) and
	// the node's session count fresh while nothing is sampling.
	if r.cfg.DeltaSink != nil {
		r.cfg.DeltaSink(TickDelta{Seq: snap.Seq, Sessions: snap.Sessions, Keys: deltas})
	}
	for _, d := range deltas {
		d.Sketch.Reset()
		*r.ticks[d.Key] = Agg{Sketch: d.Sketch}
	}
	r.taken, r.keys, r.deltas = taken[:0], keys[:0], deltas[:0]

	took := time.Since(start)
	if m := r.cfg.Metrics; m.Enabled() {
		m.Set("fleet_sessions_active", float64(snap.Sessions))
		m.Set("fleet_keys", float64(len(r.globals)))
		m.Add("fleet_sessions_started_total", int64(started))
		m.Add("fleet_sessions_ended_total", int64(ended))
		m.Add("fleet_sessions_rejected_total", int64(rejected))
		m.Add("fleet_samples_total", int64(samples))
		m.Add("fleet_samples_lost_total", int64(lost))
		m.Add("fleet_fanin_total", 1)
		m.ObserveDur("fleet_fanin_ms", took)
		meterStream(m, r.liveView)
	}
	return snap
}

// meterStream folds a liveView's stream and history counters into the
// metrics registry — shared between Registry and Aggregator fan-in.
func meterStream(m *obs.Metrics, v *liveView) {
	m.Set("fleet_stream_subscribers", float64(v.hub.count()))
	m.Add("fleet_stream_events_total", v.hub.events.Swap(0))
	m.Add("fleet_stream_dropped_total", v.hub.dropped.Swap(0))
	m.Add("fleet_stream_bytes_total", v.hub.bytes.Swap(0))
	m.Add("fleet_stream_reconnects_total", v.reconnects.Swap(0))
	m.Set("fleet_history_snapshots", float64(v.historyLen()))
}

// mergeInto folds d into the cumulative aggregate of key k, creating it
// on first sight.
func mergeInto[K comparable](globals map[K]*Agg, k K, d *Agg) {
	g := globals[k]
	if g == nil {
		g = &Agg{Sketch: obs.NewSketch()}
		globals[k] = g
	}
	g.add(d)
}

func (g *Agg) stats(k Key) KeyStats {
	ks := KeyStats{
		Method:  k.Method,
		Browser: k.Browser,
		Region:  k.Region,
		Count:   g.Count,
		Lost:    g.Lost,
	}
	if g.Sketch.Count() > 0 {
		ks.P50 = g.Sketch.Quantile(0.5)
		ks.P95 = g.Sketch.Quantile(0.95)
		ks.P99 = g.Sketch.Quantile(0.99)
	}
	if g.JitterN > 0 {
		ks.JitterMs = g.JitterSum / float64(g.JitterN)
	}
	if g.Count > 0 {
		ks.LossRate = float64(g.Lost) / float64(g.Count)
	}
	return ks
}

// Start launches the periodic fan-in ticker. Stop (or a second Start)
// must not be called concurrently with it.
func (r *Registry) Start() { r.tick.start(r.cfg.Interval, func() { r.FanIn() }) }

// Stop halts the ticker and waits for the in-flight pass, then runs one
// final fan-in so every ingested sample reaches the snapshot.
func (r *Registry) Stop() { r.tick.halt(func() { r.FanIn() }) }

// ticker runs one pass periodically on its own goroutine: a Registry's
// fan-in or an Aggregator's publish.
type ticker struct {
	mu         sync.Mutex
	stop, done chan struct{}
}

// start launches the loop; it is a no-op while one is running.
func (t *ticker) start(every time.Duration, pass func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stop != nil {
		return
	}
	t.stop = make(chan struct{})
	t.done = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		tk := time.NewTicker(every)
		defer tk.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tk.C:
				pass()
			}
		}
	}(t.stop, t.done)
}

// halt stops the loop, waits for the in-flight pass, then runs pass once
// more so everything ingested reaches the snapshot. It is a no-op when
// no loop is running.
func (t *ticker) halt(pass func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stop == nil {
		return
	}
	close(t.stop)
	<-t.done
	t.stop, t.done = nil, nil
	pass()
}
