// Command perfbench is the repository's end-to-end benchmark with a
// traced per-layer ledger. It runs one named workload from a single
// process, checks every op's output, and prints the result as one JSON
// object on the last line of standard output.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 it makes an untraced pass under the CPU profiler and a
// second pass that traces every other op, and reports the per-layer
// metrics, the CPU profile folded by package, and the tracing overhead. perfbench/run.sh
// builds it and runs it from the repository root.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef is one reported metric: its name and unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are printed by every untraced run, on every workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"op_ms.p50", "ms"},
	{"op_ms.p90", "ms"},
	{"op_rel.p50", "ratio"},
	{"work_per_s", "1/s"},
	{"allocs_per_op", "count"},
	{"live_heap_mb", "MB"},
	{"ok_share", "share"},
}

// perLayerMetrics are printed by every traced run, on every workload. A
// layer the workload does not reach reads 0.
var perLayerMetrics = func() []metricDef {
	defs := []metricDef{
		{"core.cell_ms.p50", "ms"},
	}
	for _, a := range paperArtifacts {
		defs = append(defs, metricDef{"core.artifact_ms." + a, "ms"})
	}
	defs = append(defs,
		metricDef{"testbed.new_us.p50", "us"},
		metricDef{"testbed.begin_run_us.p50", "us"},
		metricDef{"testbed.advance_us.p50", "us"},
		metricDef{"methods.run_us.p50", "us"},
		metricDef{"methods.run_us.p90", "us"},
		metricDef{"methods.runs_per_op", "count"},
		metricDef{"eventsim.events_per_run", "count"},
		metricDef{"eventsim.ns_per_event", "ns"},
		metricDef{"capture.match_us.p50", "us"},
		metricDef{"capture.records_per_run", "count"},
		metricDef{"netsim.frames_per_run", "count"},
		metricDef{"netsim.bytes_per_run", "bytes"},
		metricDef{"tcpsim.segments_per_run", "count"},
		metricDef{"tcpsim.retransmits_per_run", "count"},
		metricDef{"tcpsim.retx_share", "share"},
		metricDef{"faults.drops_per_run", "count"},
		metricDef{"wssim.messages_per_run", "count"},
		metricDef{"arena.reset_share", "share"},
		metricDef{"arena.slab_mb", "MB"},
		metricDef{"stats.summary_us.p50", "us"},
		metricDef{"sweep.load_us.p50", "us"},
		metricDef{"sweep.export_ms.p50", "ms"},
		metricDef{"sweep.residual_ms.p50", "ms"},
		metricDef{"sweep.store_us.p50", "us"},
		metricDef{"sweep.hit_share", "share"},
		metricDef{"sweep.cell_kb", "KB"},
		metricDef{"fleet.observe_ns", "ns"},
		metricDef{"fleet.fanin_ms.p50", "ms"},
		metricDef{"fleet.fanin_ms.p99", "ms"},
		metricDef{"fleet.agg_ingest_us.p50", "us"},
		metricDef{"fleet.agg_publish_ms.p50", "ms"},
		metricDef{"fleet.frames_rejected", "count"},
		metricDef{"fleetwire.encode_us.p50", "us"},
		metricDef{"fleetwire.decode_us.p50", "us"},
		metricDef{"fleetwire.frame_kb", "KB"},
		metricDef{"gc.cycles_per_op", "count"},
		metricDef{"gc.pause_us_per_op", "us"},
		metricDef{"gc.cpu_share", "share"},
		metricDef{"gc.alloc_mb_per_op", "MB"},
	)
	for _, b := range cpuBuckets {
		defs = append(defs, metricDef{"cpu.share." + b, "share"})
	}
	return append(defs,
		metricDef{"cpu.coverage_share", "share"},
		metricDef{"trace.overhead_share", "share"},
	)
}()

// workloadSpec sizes one workload. A run's op count is fixed by the
// workload and --seconds alone, never by elapsed time.
type workloadSpec struct {
	name string
	// opsPerSecond sizes a run: it holds seconds×opsPerSecond ops, at
	// least minOps. paper-regen's rate is above what a 2-CPU box delivers
	// so that a run holds 200 ops, enough for a steady op_ms.p90.
	opsPerSecond float64
	// traceShare is the fraction of those ops each pass of a traced run
	// holds (at least traceMin).
	traceShare float64
	traceMin   int
	// mixedOps marks a workload whose ops differ in the work they do,
	// so that the op-time tail is the program's, not the host's.
	mixedOps bool
}

const minOps = 100

var workloads = []workloadSpec{
	{name: "paper-regen", opsPerSecond: 10, traceShare: 0.125, traceMin: 20},
	// sweep-cold attempts every planned cell once whatever --seconds says,
	// so the op mix never depends on which cells fail.
	{name: "sweep-cold", mixedOps: true},
	{name: "sweep-warm", opsPerSecond: 21, traceShare: 0.25, traceMin: 20},
	{name: "fleet-ingest", opsPerSecond: 5, traceShare: 0.5, traceMin: 50},
}

// sweepColdTraceStride thins the cold sweep's plan on a traced run: every
// eighth cell still covers all four fault profiles.
const sweepColdTraceStride = 8

// setUpReps is how many times a run sets up; setup_s is their median.
const setUpReps = 9

func (w workloadSpec) ops(seconds int, traced bool) int {
	n := int(float64(seconds) * w.opsPerSecond)
	if n < minOps {
		n = minOps
	}
	if traced {
		t := int(float64(n) * w.traceShare)
		if t < w.traceMin {
			t = w.traceMin
		}
		n = t
	}
	return n
}

// newBench builds a workload's state. traced selects a --trace 1 run:
// its sizing, and the re-driven cell checks both of its passes make so
// that they do the same work between ops.
func newBench(w workloadSpec, root, work string, seed int64, seconds int, traced bool) (bench, error) {
	n := w.ops(seconds, traced)
	switch w.name {
	case "paper-regen":
		return newPaperBench(root, seed, n, traced)
	case "sweep-cold":
		stride := 1
		if traced {
			stride = sweepColdTraceStride
		}
		return newSweepColdBench(work, seed, stride, traced), nil
	case "sweep-warm":
		return newSweepWarmBench(work, seed, n), nil
	case "fleet-ingest":
		return newFleetBench(seed, n), nil
	}
	return nil, fmt.Errorf("unknown workload %q", w.name)
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// kernelMs is the reference kernel's median time in the first pass;
	// the result file records it beside the provenance.
	kernelMs float64
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: paper-regen, sweep-cold, sweep-warm or fleet-ingest")
		seed     = flag.Int64("seed", 0, "workload seed")
		seconds  = flag.Int("seconds", 20, "nominal run length in seconds; sizes the op count")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		root     = flag.String("root", ".", "repository root")
		out      = flag.String("out", ".bench_build/perfbench-out", "directory for profiles, traces and result files")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *root, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int, root, out string) error {
	var spec *workloadSpec
	for i := range workloads {
		if workloads[i].name == name {
			spec = &workloads[i]
		}
	}
	if spec == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	traced := trace == 1
	// The workloads are closed loops of one generator goroutine; they may
	// use the box's CPUs for GC and scheduling but never more.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(out, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	prov := provenance(root, name, seed, seconds, traced)
	tag := fmt.Sprintf("%s-seed%d-trace%d", name, seed, trace)
	var res result
	if traced {
		res, err = tracedRun(*spec, root, work, seed, seconds, filepath.Join(out, tag))
	} else {
		res, err = untracedRun(*spec, root, work, seed, seconds)
	}
	if err != nil {
		return err
	}
	record, err := json.MarshalIndent(map[string]any{"provenance": prov, "kernel_ms_p50": res.kernelMs, "result": res}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(out, tag+".json"), append(record, '\n'), 0o644); err != nil {
		return err
	}
	pb, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("provenance: %s\n%s\n", pb, line)
	return nil
}

// failureTolerant marks workloads whose ops may fail through a known
// program defect: a failed op counts against ok_share but does not make
// the run incorrect. On every other workload a failed op is an error.
type failureTolerant interface{ failureTolerant() }

func untracedRun(spec workloadSpec, root, work string, seed int64, seconds int) (result, error) {
	b, err := newBench(spec, root, work, seed, seconds, false)
	if err != nil {
		return result{}, err
	}
	setupS, err := setUpRepeated(b, setUpReps)
	if err != nil {
		return result{}, err
	}
	rt := newRTReader()
	p := runPass(b, nil, rt)
	heap := liveHeapMB(rt)
	runtime.KeepAlive(b)
	b.tearDown()
	logFailure(p)
	return newResult(b, []passResult{p}, endToEnd(p, setupS, heap, spec.mixedOps), endToEndMetrics), nil
}

func tracedRun(spec workloadSpec, root, work string, seed int64, seconds int, prefix string) (result, error) {
	rt := newRTReader()

	// Untraced pass under the CPU profiler: the GC ledger and the CPU
	// shares.
	plain, err := newBench(spec, root, work, seed, seconds, true)
	if err != nil {
		return result{}, err
	}
	if err := plain.setUp(); err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	profile := prefix + ".cpu.pprof"
	p0, err := profilePass(plain, rt, profile)
	plain.tearDown()
	if err != nil {
		return result{}, err
	}

	// Second pass: odd ops traced, even ops not, so that host drift over
	// the pass cancels out of the tracing overhead.
	b, err := newBench(spec, root, work, seed, seconds, true)
	if err != nil {
		return result{}, err
	}
	if err := b.setUp(); err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	led := newLedger(prefix + ".trace.json")
	origin := time.Now()
	p1 := runPass(b, func(i int) *spanRec {
		if i%2 == 0 {
			return nil
		}
		return newSpanRec(led, i, origin)
	}, rt)
	b.tearDown()
	logFailure(p0)
	logFailure(p1)
	var plainOps, tracedOps []time.Duration
	for i, d := range p1.opDur {
		if i%2 == 0 {
			plainOps = append(plainOps, d)
		} else {
			tracedOps = append(tracedOps, d)
		}
	}

	m := map[string]float64{}
	b.layers(led, m)
	gcLayers(p0, m)
	shares, coverage, err := foldProfile(profile)
	if err != nil {
		return result{}, err
	}
	for k, v := range shares {
		m["cpu.share."+k] = v
	}
	m["cpu.coverage_share"] = coverage
	m["trace.overhead_share"] = durQuantile(tracedOps, 0.5, time.Millisecond)/durQuantile(plainOps, 0.5, time.Millisecond) - 1
	if led.traceErr != nil {
		return result{}, led.traceErr
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %s.trace.json and %s\n", prefix, profile)
	return newResult(b, []passResult{p0, p1}, m, perLayerMetrics), nil
}

// newResult assembles the printed result from the passes and metrics.
func newResult(b bench, passes []passResult, m map[string]float64, defs []metricDef) result {
	_, tolerant := b.(failureTolerant)
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, p := range passes {
		res.Attempted += p.n
		res.Failed += p.n - p.ok
		if p.mismatch > 0 || (!tolerant && p.ok < p.n) {
			res.Correct = false
		}
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	res.kernelMs = passes[0].kernelP50()
	return res
}

func logFailure(p passResult) {
	if p.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d ops failed; first: %v\n", p.n-p.ok, p.n, p.firstErr)
	}
}

// provenance records where and on what a result was measured.
func provenance(root, name string, seed int64, seconds int, traced bool) map[string]any {
	return map[string]any{
		"workload":   name,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     commit(root),
		"source":     sourceDigest(root),
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest is the SHA-256 over the path and contents of every Go
// source and go.mod file under root, in path order. It names the code
// measured even in a checkout that is not a git repository.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// commit reads the checked-out commit from .git without running git;
// outside a git checkout it reports "unknown".
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}
