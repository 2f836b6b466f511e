package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"github.com/browsermetric/browsermetric/internal/arena"
	"github.com/browsermetric/browsermetric/internal/core"
	"github.com/browsermetric/browsermetric/internal/methods"
	"github.com/browsermetric/browsermetric/internal/obs"
	"github.com/browsermetric/browsermetric/internal/testbed"
)

// ledger collects what a traced pass measured at the layer boundaries:
// a duration histogram per span name. Its memory is fixed however many
// spans it counts, so a traced pass retains no more heap than an
// untraced one and the tracer does not shift GC pacing.
type ledger struct {
	ops  int // traced ops folded in
	durs map[string]*durHist
	// trace is the Chrome-trace file the first traced op's spans are
	// written to as soon as that op ends; traceErr is that write's error.
	trace    string
	traceErr error
}

func newLedger(trace string) *ledger {
	return &ledger{durs: map[string]*durHist{}, trace: trace}
}

// add counts one duration under name.
func (l *ledger) add(name string, d time.Duration) {
	h := l.durs[name]
	if h == nil {
		h = &durHist{}
		l.durs[name] = h
	}
	h.add(d)
}

// p returns the q-quantile of the named span's durations in unit.
func (l *ledger) p(name string, q float64, unit time.Duration) float64 {
	return l.durs[name].quantile(q) / float64(unit)
}

// total returns the summed duration of the named spans.
func (l *ledger) total(name string) time.Duration {
	if h := l.durs[name]; h != nil {
		return h.sum
	}
	return 0
}

// count returns how many spans of the name ended.
func (l *ledger) count(name string) uint64 {
	if h := l.durs[name]; h != nil {
		return h.n
	}
	return 0
}

// histBase is the width ratio of adjacent durHist buckets: quantiles
// read back within 0.5%.
const (
	histBase    = 1.01
	histBuckets = 2600 // 1 ns to beyond 100 s
)

var logHistBase = math.Log(histBase)

// durHist is a log-bucketed duration histogram.
type durHist struct {
	counts [histBuckets]uint32
	n      uint64
	sum    time.Duration
}

func (h *durHist) add(d time.Duration) {
	h.n++
	h.sum += d
	i := 0
	if d > 1 {
		i = int(math.Log(float64(d)) / logHistBase)
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.counts[i]++
}

// quantile returns the q-quantile in nanoseconds, read at the geometric
// middle of its bucket.
func (h *durHist) quantile(q float64) float64 {
	if h == nil || h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n-1))
	var seen uint64
	for i, c := range h.counts {
		seen += uint64(c)
		if seen > rank {
			return math.Pow(histBase, float64(i)+0.5)
		}
	}
	return math.Pow(histBase, histBuckets)
}

// spanRec records host-time spans for one traced op through an
// obs.Tracer bound to the host clock. Every span carries its own id, the
// op id and its parent span's id as attributes. A nil *spanRec records
// nothing.
type spanRec struct {
	tr    *obs.Tracer
	led   *ledger
	op    int64
	next  int64
	stack []int64
}

// newSpanRec starts the span record of traced op op.
func newSpanRec(led *ledger, op int, origin time.Time) *spanRec {
	tr := obs.NewTracer()
	tr.Bind(func() time.Duration { return time.Since(origin) })
	return &spanRec{tr: tr, led: led, op: int64(op)}
}

// begin opens a span nested in the innermost open one.
func (r *spanRec) begin(name string) *obs.Span {
	if r == nil {
		return nil
	}
	r.next++
	parent := int64(0)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.stack = append(r.stack, r.next)
	return r.tr.Begin(name).Int("id", r.next).Int("op", r.op).Int("parent", parent)
}

// end closes the innermost open span, which must be s.
func (r *spanRec) end(s *obs.Span) {
	if r == nil {
		return
	}
	s.Done()
	r.stack = r.stack[:len(r.stack)-1]
}

// finish folds the op's spans into the ledger; the first traced op's
// spans are also written out as the run's Chrome trace.
func (r *spanRec) finish() {
	if r == nil {
		return
	}
	spans := r.tr.Spans()
	for _, s := range spans {
		r.led.add(s.Name, s.Duration())
	}
	if r.led.ops == 0 {
		th := obs.Thread{ID: 1, Name: fmt.Sprintf("op %d", r.op), Spans: spans}
		r.led.traceErr = writeChromeTrace(r.led.trace, th)
	}
	r.led.ops++
}

// writeChromeTrace writes one thread's spans as Chrome trace_event JSON.
func writeChromeTrace(path string, th obs.Thread) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, []obs.Thread{th}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cellProbe accumulates the per-run counters of re-driven cells.
type cellProbe struct {
	runs, events, records uint64
	regRuns               uint64 // runs counted into reg
	resets, begins        uint64
	slabBytes             uint64
	reg                   *obs.Metrics
}

// newCellProbe returns a probe with its own metrics registry, which the
// re-driven testbeds' simulated layers count into.
func newCellProbe() cellProbe { return cellProbe{reg: obs.NewMetrics()} }

// redriveCell executes one cell the way core.RunContext does, call by
// call — testbed.New, then per run BeginRun, Runner.Run, Cap.MatchRTT
// and Advance — with a span around every call. The samples must equal
// RunContext's exactly; callers compare them. a is the worker arena the
// testbed draws its buffers from; cp, when non-nil, receives the cell's
// event, capture and arena counts; reg, when non-nil, the simulated
// layers' counters.
func redriveCell(cfg core.Config, a *arena.Arena, sp *spanRec, cp *cellProbe, reg *obs.Metrics) (*core.Experiment, error) {
	cfg.Normalize()
	cell := sp.begin("core.cell")
	defer sp.end(cell)
	tbCfg := cfg.Testbed
	tbCfg.Arena = a
	tbCfg.Tracer = nil // a testbed binds its tracer to virtual time
	tbCfg.Metrics = reg
	s := sp.begin("testbed.new")
	tb := testbed.New(tbCfg)
	sp.end(s)
	resets0 := a.Stats().Resets
	if cfg.Warp > 0 {
		tb.Advance(cfg.Warp)
	}
	cfg.Testbed.Arena = nil
	cfg.Tracer, cfg.Metrics = nil, nil
	exp := &core.Experiment{Config: cfg, Samples: make([]core.Sample, 0, cfg.Runs*methods.Rounds)}
	r := &methods.Runner{TB: tb, Profile: cfg.Profile, Timing: cfg.Timing}
	for run := 0; run < cfg.Runs; run++ {
		r.RunIndex = run
		fired := tb.Sim.Fired()
		s = sp.begin("testbed.begin_run")
		tb.BeginRun()
		sp.end(s)
		s = sp.begin("methods.run")
		res, err := r.Run(cfg.Method)
		sp.end(s)
		if err != nil {
			return nil, fmt.Errorf("core: run %d: %w", run, err)
		}
		recs := len(tb.Cap.Records())
		s = sp.begin("capture.match")
		pairs := tb.Cap.MatchRTT(res.ServerPort)
		sp.end(s)
		if len(pairs) < methods.Rounds {
			return nil, fmt.Errorf("core: run %d captured %d wire pairs, want >= %d", run, len(pairs), methods.Rounds)
		}
		pairs = pairs[len(pairs)-methods.Rounds:]
		for round := 1; round <= methods.Rounds; round++ {
			wp := pairs[round-1]
			browserRTT := res.BrowserRTT(round)
			exp.Samples = append(exp.Samples, core.Sample{
				Run:        run,
				Round:      round,
				BrowserRTT: browserRTT,
				WireRTT:    wp.RTT(),
				Overhead:   browserRTT - wp.RTT(),
				Handshake:  res.NewConnRounds[round-1],
			})
			tbCfg.Metrics.ObserveDur("delta_d_ms", browserRTT-wp.RTT())
		}
		s = sp.begin("testbed.advance")
		tb.Advance(cfg.Gap)
		sp.end(s)
		if reg != nil && cp != nil {
			cp.regRuns++
		}
		if cp != nil {
			cp.runs++
			cp.events += tb.Sim.Fired() - fired
			cp.records += uint64(recs)
			cp.begins++
		}
	}
	if cp != nil {
		st := a.Stats()
		cp.resets += st.Resets - resets0
		if st.SlabBytes > cp.slabBytes {
			cp.slabBytes = st.SlabBytes
		}
	}
	return exp, nil
}

// sameSamples reports whether two experiments hold identical samples.
func sameSamples(a, b *core.Experiment) error {
	if len(a.Samples) != len(b.Samples) {
		return fmt.Errorf("re-driven cell has %d samples, RunContext %d", len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			return fmt.Errorf("re-driven sample %d = %+v, RunContext %+v", i, a.Samples[i], b.Samples[i])
		}
	}
	return nil
}

// cellLayers turns the re-driven cells' spans and counters into the
// core, testbed, methods, eventsim, capture, arena and simulator-counter
// per-layer metrics.
func cellLayers(l *ledger, cp *cellProbe, out map[string]float64) {
	if cp.runs == 0 {
		return
	}
	runs := float64(cp.runs)
	out["core.cell_ms.p50"] = l.p("core.cell", 0.5, time.Millisecond)
	out["testbed.new_us.p50"] = l.p("testbed.new", 0.5, time.Microsecond)
	out["testbed.begin_run_us.p50"] = l.p("testbed.begin_run", 0.5, time.Microsecond)
	out["testbed.advance_us.p50"] = l.p("testbed.advance", 0.5, time.Microsecond)
	out["methods.run_us.p50"] = l.p("methods.run", 0.5, time.Microsecond)
	out["methods.run_us.p90"] = l.p("methods.run", 0.9, time.Microsecond)
	out["methods.runs_per_op"] = runs / float64(l.ops)
	out["eventsim.events_per_run"] = float64(cp.events) / runs
	if cp.events > 0 {
		simNs := l.total("methods.run") + l.total("testbed.advance")
		out["eventsim.ns_per_event"] = float64(simNs) / float64(cp.events)
	}
	out["capture.match_us.p50"] = l.p("capture.match", 0.5, time.Microsecond)
	out["capture.records_per_run"] = float64(cp.records) / runs
	out["arena.reset_share"] = float64(cp.resets) / float64(cp.begins)
	out["arena.slab_mb"] = float64(cp.slabBytes) / (1 << 20)
	m := cp.reg
	runs = float64(cp.regRuns)
	if runs == 0 {
		return
	}
	out["netsim.frames_per_run"] = float64(m.Counter("wire_frames")) / runs
	out["netsim.bytes_per_run"] = float64(m.Counter("wire_bytes")) / runs
	seg := float64(m.Counter("tcp_segments_sent"))
	retx := float64(m.Counter("tcp_retransmits"))
	out["tcpsim.segments_per_run"] = seg / runs
	out["tcpsim.retransmits_per_run"] = retx / runs
	if seg > 0 {
		out["tcpsim.retx_share"] = retx / seg
	}
	out["faults.drops_per_run"] = float64(m.Counter("fault_drops_loss")+m.Counter("fault_drops_queue")) / runs
	out["wssim.messages_per_run"] = float64(m.Counter("ws_messages_sent")) / runs
}

// cpuBuckets are the layers a CPU profile is folded into: the repo's
// internal packages plus map operations, GC and system calls. The
// benchmark's own code (its op loop, kernel and checks) is "bench".
var cpuBuckets = []string{
	"eventsim", "netsim", "tcpsim", "httpsim", "wssim", "faults", "capture",
	"methods", "browser", "clock", "arena", "stats", "core", "testbed",
	"sweep", "fleet", "fleetwire", "obs", "maps", "gc", "syscall", "bench",
}

// repoPrefix opens the symbol of every function in a repo package; the
// benchmark's own functions are in package main.
const repoPrefix = "github.com/browsermetric/browsermetric/"

// foldProfile runs `go tool pprof -traces` on a CPU profile and folds
// every sample into one bucket: GC work (anything under a GC worker,
// assist or sweeper) is gc; a sample whose leaf is a map operation is
// maps, one whose leaf is a system call is syscall; otherwise it goes to
// the innermost frame that belongs to a repo package. It returns each
// bucket's share of all samples; coverage is the share assigned to any
// bucket.
func foldProfile(profile string) (map[string]float64, float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	outb, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	shares := map[string]float64{}
	var total, covered float64
	var weight float64
	var stack []string
	flush := func() {
		if weight > 0 && len(stack) > 0 {
			total += weight
			if b := bucketOf(stack); b != "" {
				shares[b] += weight
				covered += weight
			}
		}
		weight, stack = 0, stack[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(outb))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(stack) == 0 && weight == 0 {
			w, ok := parseWeight(fields[0])
			if !ok || len(fields) < 2 {
				continue // header lines
			}
			weight = w
			stack = append(stack, fields[1])
			continue
		}
		if weight > 0 {
			stack = append(stack, fields[0])
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if total == 0 {
		return shares, 0, nil
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, covered / total, nil
}

// parseWeight parses a pprof duration such as "10ms" or "1.20s".
func parseWeight(s string) (float64, bool) {
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"ms", 1e-3}, {"us", 1e-6}, {"µs", 1e-6}, {"ns", 1e-9}, {"s", 1}} {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			if err != nil {
				return 0, false
			}
			return v * u.scale, true
		}
	}
	return 0, false
}

// bucketOf assigns one sample's stack (leaf first) to a bucket.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "runtime.gcBgMarkWorker"), strings.HasPrefix(fn, "runtime.gcAssistAlloc"),
			strings.HasPrefix(fn, "runtime.bgsweep"), strings.HasPrefix(fn, "runtime.bgscavenge"),
			strings.HasPrefix(fn, "runtime.gcStart"), strings.HasPrefix(fn, "runtime.markroot"),
			strings.HasPrefix(fn, "runtime.GC"), strings.HasPrefix(fn, "runtime.gcMarkDone"),
			strings.HasPrefix(fn, "runtime.gcMarkTermination"), strings.HasPrefix(fn, "runtime.forEachP"):
			return "gc"
		}
	}
	leaf := stack[0]
	switch {
	case strings.HasPrefix(leaf, "internal/runtime/maps."), strings.HasPrefix(leaf, "runtime.map"):
		return "maps"
	case strings.HasPrefix(leaf, "syscall."), strings.HasPrefix(leaf, "internal/runtime/syscall."),
		strings.HasPrefix(leaf, "runtime/internal/syscall."):
		return "syscall"
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return "bench"
		}
		rest, ok := strings.CutPrefix(fn, repoPrefix+"internal/")
		if !ok {
			continue
		}
		pkg, _, _ := strings.Cut(rest, ".")
		for _, b := range cpuBuckets {
			if b == pkg {
				return b
			}
		}
	}
	return ""
}
