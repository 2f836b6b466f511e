package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// hub fans rendered SSE frames out to subscribers. Delivery is
// non-blocking: a subscriber that cannot keep up loses frames (counted,
// never buffered unboundedly) and resyncs from the next full snapshot —
// the dashboard is a monitor, not a durable feed.
type hub struct {
	mu   sync.Mutex
	subs map[chan []byte]struct{}

	// Tick-local stream counters, drained into obs.Metrics at fan-in.
	events  atomic.Int64
	dropped atomic.Int64
	bytes   atomic.Int64
}

// subBuffer is each subscriber's frame buffer: enough to ride out a slow
// write without letting a dead client pin memory.
const subBuffer = 16

func newHub() *hub {
	return &hub{subs: make(map[chan []byte]struct{})}
}

func (h *hub) subscribe() chan []byte {
	ch := make(chan []byte, subBuffer)
	h.mu.Lock()
	h.subs[ch] = struct{}{}
	h.mu.Unlock()
	return ch
}

func (h *hub) unsubscribe(ch chan []byte) {
	h.mu.Lock()
	delete(h.subs, ch)
	h.mu.Unlock()
}

func (h *hub) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

func (h *hub) publish(frame []byte) {
	h.mu.Lock()
	for ch := range h.subs {
		select {
		case ch <- frame:
			h.events.Add(1)
			h.bytes.Add(int64(len(frame)))
		default:
			h.dropped.Add(1)
		}
	}
	h.mu.Unlock()
}

// defaultKeepAlive is the idle heartbeat period for SSE streams: long
// enough to cost nothing, short enough to beat common 30–60s proxy idle
// timeouts.
const defaultKeepAlive = 15 * time.Second

// defaultHistoryDepth is how many past snapshots the history ring
// retains when the caller sets no depth.
const defaultHistoryDepth = 64

// liveView is the read side of an aggregation plane — the current
// snapshot, a bounded history ring of past snapshots, and the SSE hub —
// shared by the single-node Registry and the multi-node Aggregator so
// both serve the same /live dashboard, the same stream protocol and the
// same /live/history endpoint.
type liveView struct {
	hub       *hub
	keepAlive time.Duration

	snapMu   sync.RWMutex
	snap     Snapshot
	ring     []Snapshot // ascending by Seq, bounded by ringCap
	ringCap  int
	every    int // record every Nth changed snapshot
	changedN int

	// reconnects counts SSE subscribers arriving with a Last-Event-ID
	// header — i.e. dashboard reconnections resuming from the ring.
	reconnects atomic.Int64
}

// newLiveView builds a view whose history ring holds depth snapshots
// (default defaultHistoryDepth) and records every Nth changed one
// (default 1).
func newLiveView(depth, every int) *liveView {
	if depth <= 0 {
		depth = defaultHistoryDepth
	}
	if every <= 0 {
		every = 1
	}
	return &liveView{
		hub:       newHub(),
		keepAlive: defaultKeepAlive,
		ring:      make([]Snapshot, 0, depth),
		ringCap:   depth,
		every:     every,
	}
}

// publish installs a new snapshot, records it into the history ring when
// it changed anything (subsampled by the configured cadence), and pushes
// the changed-keys delta to the stream.
func (v *liveView) publish(snap, delta Snapshot) {
	changed := len(delta.Keys) > 0
	v.snapMu.Lock()
	v.snap = snap
	if changed {
		if v.changedN%v.every == 0 {
			if len(v.ring) == v.ringCap {
				copy(v.ring, v.ring[1:])
				v.ring = v.ring[:v.ringCap-1]
			}
			v.ring = append(v.ring, snap)
		}
		v.changedN++
	}
	v.snapMu.Unlock()
	if changed {
		v.hub.publish(renderEventID(snap.Seq, "delta", delta))
	}
}

// Snapshot returns the most recently published snapshot (zero before the
// first publish).
func (v *liveView) Snapshot() Snapshot {
	v.snapMu.RLock()
	defer v.snapMu.RUnlock()
	return v.snap
}

// History returns the retained snapshots with Seq > since, oldest first.
// The ring is bounded, so a scrape that fell far behind gets the oldest
// retained state, not an unbounded replay.
func (v *liveView) History(since uint64) []Snapshot {
	v.snapMu.RLock()
	defer v.snapMu.RUnlock()
	i := 0
	for i < len(v.ring) && v.ring[i].Seq <= since {
		i++
	}
	out := make([]Snapshot, len(v.ring)-i)
	copy(out, v.ring[i:])
	return out
}

func (v *liveView) historyLen() int {
	v.snapMu.RLock()
	defer v.snapMu.RUnlock()
	return len(v.ring)
}

// HistoryHandler serves the snapshot history ring as JSON:
// GET /live/history?since=N returns every retained snapshot with
// seq > N (all of them when since is absent), oldest first.
func (v *liveView) HistoryHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var since uint64
		if s := req.URL.Query().Get("since"); s != "" {
			n, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				http.Error(w, "bad since", http.StatusBadRequest)
				return
			}
			since = n
		}
		snaps := v.History(since)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(struct {
			Since     uint64     `json:"since"`
			Snapshots []Snapshot `json:"snapshots"`
		}{Since: since, Snapshots: snaps})
	})
}

// renderEvent renders one SSE frame: "event: <name>\ndata: <json>\n\n".
// Struct marshalling has a fixed field order, so equal values render to
// identical bytes.
func renderEvent(name string, v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		// Snapshots are plain numbers and strings; this cannot fail.
		data = []byte("{}")
	}
	frame := make([]byte, 0, len(name)+len(data)+16)
	frame = append(frame, "event: "...)
	frame = append(frame, name...)
	frame = append(frame, "\ndata: "...)
	frame = append(frame, data...)
	frame = append(frame, "\n\n"...)
	return frame
}

// renderEventID is renderEvent with a leading SSE id line, so browsers
// resume with Last-Event-ID after a dropped connection.
func renderEventID(id uint64, name string, v any) []byte {
	frame := make([]byte, 0, 16)
	frame = append(frame, "id: "...)
	frame = strconv.AppendUint(frame, id, 10)
	frame = append(frame, '\n')
	return append(frame, renderEvent(name, v)...)
}

// LiveHandler serves the streaming dashboard. A request that accepts
// text/event-stream (or sets ?stream=1) gets the SSE feed: one full
// "snapshot" event immediately (preceded by ring replay when the client
// reconnects with Last-Event-ID), then a "delta" event with the changed
// keys after every publish, and a ":ka" comment heartbeat while idle.
// Anything else gets the embedded HTML view, which opens the SSE feed
// itself.
func (v *liveView) LiveHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if strings.Contains(req.Header.Get("Accept"), "text/event-stream") ||
			req.URL.Query().Get("stream") != "" {
			v.serveSSE(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = w.Write([]byte(dashboardHTML))
	})
}

func (v *liveView) serveSSE(w http.ResponseWriter, req *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	ch := v.hub.subscribe()
	defer v.hub.unsubscribe(ch)

	// A reconnecting client replays the ring from where it left off,
	// then gets the current snapshot if it is newer than the replay.
	var lastSent uint64
	hasLastID := false
	if lid := req.Header.Get("Last-Event-ID"); lid != "" {
		if since, err := strconv.ParseUint(lid, 10, 64); err == nil {
			hasLastID = true
			v.reconnects.Add(1)
			for _, s := range v.History(since) {
				if !v.writeFrame(w, renderEventID(s.Seq, "snapshot", s)) {
					return
				}
				lastSent = s.Seq
			}
		}
	}
	if cur := v.Snapshot(); !hasLastID || cur.Seq > lastSent {
		if !v.writeFrame(w, renderEventID(cur.Seq, "snapshot", cur)) {
			return
		}
	}
	fl.Flush()

	ka := time.NewTimer(v.keepAlive)
	defer ka.Stop()
	for {
		select {
		case <-req.Context().Done():
			return
		case frame := <-ch:
			if _, err := w.Write(frame); err != nil {
				return
			}
			fl.Flush()
			if !ka.Stop() {
				<-ka.C
			}
			ka.Reset(v.keepAlive)
		case <-ka.C:
			// SSE comment: keeps proxies from reaping idle streams
			// without waking the client-side event handlers.
			if _, err := fmt.Fprint(w, ":ka\n\n"); err != nil {
				return
			}
			fl.Flush()
			ka.Reset(v.keepAlive)
		}
	}
}

// writeFrame writes one already-rendered frame and meters it like a hub
// delivery. Reports false when the client is gone.
func (v *liveView) writeFrame(w http.ResponseWriter, frame []byte) bool {
	if _, err := w.Write(frame); err != nil {
		return false
	}
	v.hub.events.Add(1)
	v.hub.bytes.Add(int64(len(frame)))
	return true
}

// dashboardHTML is the minimal embedded view: a table of per-key
// aggregates kept current by the SSE feed, with a history scrubber
// backed by /live/history. No external assets.
const dashboardHTML = `<!doctype html>
<html><head><meta charset="utf-8"><title>fleet live</title>
<style>
body{font:14px/1.4 system-ui,sans-serif;margin:2em;background:#111;color:#ddd}
h1{font-size:1.2em}
table{border-collapse:collapse;margin-top:1em}
th,td{padding:.3em .8em;border-bottom:1px solid #333;text-align:right}
th{color:#9cf}
td:nth-child(-n+4),th:nth-child(-n+4){text-align:left}
#meta{color:#888}
#scrub{margin-top:1em;color:#888}
#seek{width:20em;vertical-align:middle}
#golive{margin-left:.6em}
.paused #meta{color:#fc6}
</style></head><body>
<h1>fleet live delay aggregates</h1>
<div id="meta">connecting&hellip;</div>
<div id="scrub"><input type="range" id="seek" min="0" max="0" value="0" disabled>
<button id="golive" disabled>live</button> <span id="seekinfo"></span></div>
<table><thead><tr>
<th>node</th><th>method</th><th>browser</th><th>region</th><th>count</th><th>lost</th>
<th>p50 ms</th><th>p95 ms</th><th>p99 ms</th><th>jitter ms</th><th>loss</th>
</tr></thead><tbody id="rows"></tbody></table>
<script>
var lrows = {}, lmeta = null, hist = [], paused = false;
function keyOf(k){ return (k.node||"")+"|"+k.method+"|"+k.browser+"|"+k.region; }
function fmt(x){ return (Math.round(x*1000)/1000).toString(); }
function esc(x){
  return String(x).replace(/&/g,"&amp;").replace(/</g,"&lt;")
    .replace(/>/g,"&gt;").replace(/"/g,"&quot;");
}
function render(rows){
  var ks = Object.keys(rows).sort();
  var html = "";
  for (var i = 0; i < ks.length; i++) {
    var k = rows[ks[i]];
    html += "<tr><td>"+esc(k.node||"")+"</td><td>"+esc(k.method)+"</td><td>"+esc(k.browser)+"</td><td>"+esc(k.region)+
      "</td><td>"+k.count+"</td><td>"+k.lost+"</td><td>"+fmt(k.p50_ms)+
      "</td><td>"+fmt(k.p95_ms)+"</td><td>"+fmt(k.p99_ms)+
      "</td><td>"+fmt(k.jitter_ms)+"</td><td>"+fmt(k.loss_rate)+"</td></tr>";
  }
  document.getElementById("rows").innerHTML = html;
}
function meta(s, suffix){
  document.getElementById("meta").textContent =
    "seq "+s.seq+" · "+s.sessions+" live sessions"+suffix;
}
function showLive(){
  if (lmeta) meta(lmeta, "");
  render(lrows);
}
function showHist(s){
  var rows = {};
  for (var i = 0; i < (s.keys||[]).length; i++) rows[keyOf(s.keys[i])] = s.keys[i];
  meta(s, " · history");
  render(rows);
}
function apply(ev, reset){
  var s = JSON.parse(ev.data);
  if (reset) lrows = {};
  for (var i = 0; i < (s.keys||[]).length; i++) lrows[keyOf(s.keys[i])] = s.keys[i];
  lmeta = s;
  if (!paused) showLive();
}
function refreshHistory(cb){
  fetch("live/history").then(function(r){ return r.json(); }).then(function(h){
    hist = h.snapshots || [];
    var seek = document.getElementById("seek");
    seek.max = Math.max(hist.length-1, 0);
    seek.disabled = hist.length === 0;
    document.getElementById("golive").disabled = false;
    if (cb) cb();
  });
}
document.getElementById("seek").addEventListener("input", function(){
  paused = true;
  document.body.className = "paused";
  var s = hist[+this.value];
  if (s) {
    document.getElementById("seekinfo").textContent = "seq "+s.seq;
    showHist(s);
  }
});
document.getElementById("golive").addEventListener("click", function(){
  paused = false;
  document.body.className = "";
  document.getElementById("seekinfo").textContent = "";
  showLive();
});
setInterval(refreshHistory, 5000);
refreshHistory();
var es = new EventSource("live?stream=1");
es.addEventListener("snapshot", function(ev){ apply(ev, true); });
es.addEventListener("delta", function(ev){ apply(ev, false); });
</script>
</body></html>
`
