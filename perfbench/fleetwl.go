package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/fleet"
	"github.com/browsermetric/browsermetric/internal/fleetwire"
)

// fleetSessions is the live session population of fleet-ingest.
const fleetSessions = 100_000

// The synthetic client population below is cmd/loadgen's calibrated
// sample model: round-robin over methods, then Table-2 browser profiles,
// then regions, with browser send/receive costs drawn from the profile's
// calibrated distributions on top of the region's base delay.
var (
	fleetRegions = []struct {
		name       string
		base, loss float64
	}{
		{"us", 20, 0.002}, {"eu", 35, 0.003}, {"ap", 70, 0.008}, {"sa", 95, 0.012},
	}
	fleetMethods = []struct {
		label string
		api   browser.API
		post  bool
	}{
		{"http-get", browser.APIXHR, false},
		{"http-post", browser.APIXHR, true},
		{"websocket", browser.APIWebSocket, false},
		{"tcp", browser.APIJavaSocket, false},
		{"udp", browser.APIJavaUDP, false},
	}
)

type fleetClient struct {
	id      uint64
	key     fleet.Key
	profile *browser.Profile
	api     browser.API
	post    bool
	lossP   float64
	baseMs  float64
}

func buildFleetClients(n int) []fleetClient {
	profiles := browser.Profiles()
	clients := make([]fleetClient, n)
	for i := range clients {
		m := fleetMethods[i%len(fleetMethods)]
		p := profiles[(i/len(fleetMethods))%len(profiles)]
		reg := fleetRegions[(i/(len(fleetMethods)*len(profiles)))%len(fleetRegions)]
		api := m.api
		if !p.Supports(api) {
			api = browser.APIXHR
		}
		clients[i] = fleetClient{
			id:      uint64(i + 1),
			key:     fleet.Key{Method: m.label, Browser: p.Label(), Region: reg.name},
			profile: p,
			api:     api,
			post:    m.post,
			lossP:   reg.loss,
			baseMs:  reg.base,
		}
	}
	return clients
}

// fleetSample is one pre-drawn probe result.
type fleetSample struct {
	delayMs float64
	lost    bool
}

// fleetBench drives one collector Registry and one root Aggregator in
// process. One op is one tick: Observe for every session's sample, then
// FanIn, whose DeltaSink encodes the tick with fleetwire.AppendFrame,
// then the root's IngestHandler served in process, then Publish.
type fleetBench struct {
	seed int64
	n    int

	clients []fleetClient
	rng     *rand.Rand
	samples []fleetSample // the next tick's samples, drawn before it starts
	tick    int

	reg     *fleet.Registry
	agg     *fleet.Aggregator
	ingest  http.Handler
	keys    []fleetwire.KeyDelta
	frame   []byte
	status  int
	local   fleet.Snapshot
	root    fleet.Snapshot
	total   uint64 // samples observed since set-up
	sp      *spanRec
	frameKB float64
	frames  int
	// rejected counts traced ticks whose frame the root refused; a tick
	// posts exactly one frame, so this is the rejected-frame count.
	rejected int
}

func newFleetBench(seed int64, n int) *fleetBench {
	return &fleetBench{seed: seed, n: n}
}

func (b *fleetBench) ops() int { return b.n }

func (b *fleetBench) setUp() error {
	b.clients = buildFleetClients(fleetSessions)
	b.rng = rand.New(rand.NewSource(b.seed))
	b.samples = make([]fleetSample, len(b.clients))
	b.tick, b.total = 0, 0
	b.reg = fleet.New(fleet.Config{Shards: 64, MaxSessions: fleetSessions + 1, DeltaSink: b.sink})
	b.agg = fleet.NewAggregator(fleet.AggConfig{StaleAfter: 24 * time.Hour})
	b.ingest = b.agg.IngestHandler()
	// The warm-up tick admits every session, so measured ticks run the
	// steady state.
	b.prepare(0)
	if _, err := b.op(0, nil); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if err := b.check(0, nil); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

func (b *fleetBench) tearDown() {}

// prepare draws the next tick's samples. It runs between ops, untimed,
// so a tick measures the fleet plane rather than the sample model.
func (b *fleetBench) prepare(int) {
	round := b.tick + 1
	for i := range b.clients {
		c := &b.clients[i]
		if b.rng.Float64() < c.lossP {
			b.samples[i] = fleetSample{lost: true}
			continue
		}
		send := c.profile.SendCost(c.api, round, c.post, b.rng)
		recv := c.profile.RecvCost(c.api, b.rng)
		b.samples[i] = fleetSample{delayMs: c.baseMs + float64(send+recv)/float64(time.Millisecond)}
	}
}

func (b *fleetBench) op(_ int, sp *spanRec) (float64, error) {
	b.sp = sp
	b.tick++
	s := sp.begin("fleet.observe")
	for i := range b.clients {
		c := &b.clients[i]
		smp := b.samples[i]
		if !b.reg.Observe(c.id, c.key, smp.delayMs, smp.lost) {
			sp.end(s)
			return 0, fmt.Errorf("session %d rejected", c.id)
		}
	}
	sp.end(s)
	b.total += uint64(len(b.clients))

	s = sp.begin("fleet.fanin")
	b.local = b.reg.FanIn()
	sp.end(s)

	s = sp.begin("fleet.agg_ingest")
	req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(b.frame))
	rec := httptest.NewRecorder()
	b.ingest.ServeHTTP(rec, req)
	sp.end(s)
	b.status = rec.Code

	s = sp.begin("fleet.agg_publish")
	b.root = b.agg.Publish()
	sp.end(s)
	b.sp = nil
	return float64(len(b.clients)), nil
}

// sink is the Registry's DeltaSink: it encodes the tick into one wire
// frame, as a collector uplink does.
func (b *fleetBench) sink(d fleet.TickDelta) {
	s := b.sp.begin("fleetwire.encode")
	defer b.sp.end(s)
	b.keys = b.keys[:0]
	for _, k := range d.Keys {
		b.keys = append(b.keys, fleetwire.KeyDelta{
			Method: k.Key.Method, Browser: k.Key.Browser, Region: k.Key.Region,
			Count: k.Count, Lost: k.Lost,
			JitterSum: k.JitterSum, JitterN: k.JitterN,
			Sketch: k.Sketch,
		})
	}
	f := fleetwire.Frame{Node: "bench", Epoch: 1, Seq: d.Seq, Sessions: uint64(d.Sessions), Keys: b.keys}
	frame, err := fleetwire.AppendFrame(b.frame[:0], &f)
	if err != nil {
		b.frame = b.frame[:0] // an empty body fails the ingest check
		return
	}
	b.frame = frame
}

// check requires sample conservation: the root accepted the frame, and
// its per-key counts equal the collector's local snapshot, whose counts
// sum to every sample observed.
func (b *fleetBench) check(_ int, sp *spanRec) error {
	if sp != nil && b.status != http.StatusOK {
		b.rejected++
	}
	if b.status != http.StatusOK {
		return fmt.Errorf("root rejected the tick's frame: HTTP %d", b.status)
	}
	if len(b.root.Keys) != len(b.local.Keys) {
		return fmt.Errorf("root holds %d keys, collector %d", len(b.root.Keys), len(b.local.Keys))
	}
	var sum uint64
	for i, l := range b.local.Keys {
		r := b.root.Keys[i]
		if r.Method != l.Method || r.Browser != l.Browser || r.Region != l.Region || r.Count != l.Count || r.Lost != l.Lost {
			return fmt.Errorf("key %d: root %s/%s/%s count %d lost %d, collector %s/%s/%s count %d lost %d",
				i, r.Method, r.Browser, r.Region, r.Count, r.Lost, l.Method, l.Browser, l.Region, l.Count, l.Lost)
		}
		sum += l.Count
	}
	if sum != b.total {
		return fmt.Errorf("collector counted %d samples, %d observed", sum, b.total)
	}
	if sp != nil {
		s := sp.begin("fleetwire.decode")
		_, _, err := fleetwire.DecodeFrame(b.frame)
		sp.end(s)
		if err != nil {
			return fmt.Errorf("decode: %w", err)
		}
		b.frameKB += float64(len(b.frame)) / 1024
		b.frames++
	}
	return nil
}

func (b *fleetBench) layers(l *ledger, out map[string]float64) {
	if n := l.count("fleet.observe"); n > 0 {
		out["fleet.observe_ns"] = float64(l.total("fleet.observe")) / float64(n*uint64(len(b.clients)))
	}
	out["fleet.fanin_ms.p50"] = l.p("fleet.fanin", 0.5, time.Millisecond)
	out["fleet.fanin_ms.p99"] = l.p("fleet.fanin", 0.99, time.Millisecond)
	out["fleet.agg_ingest_us.p50"] = l.p("fleet.agg_ingest", 0.5, time.Microsecond)
	out["fleet.agg_publish_ms.p50"] = l.p("fleet.agg_publish", 0.5, time.Millisecond)
	out["fleet.frames_rejected"] = float64(b.rejected)
	out["fleetwire.encode_us.p50"] = l.p("fleetwire.encode", 0.5, time.Microsecond)
	out["fleetwire.decode_us.p50"] = l.p("fleetwire.decode", 0.5, time.Microsecond)
	if b.frames > 0 {
		out["fleetwire.frame_kb"] = b.frameKB / float64(b.frames)
	}
}
