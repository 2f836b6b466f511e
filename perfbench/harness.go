package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// bench is one workload's measured state. A measured pass calls op once
// per operation; only op is timed. check verifies the op's output
// afterwards, untimed; on a traced run it also cross-checks the op's
// cells by executing them a second way.
type bench interface {
	// setUp builds fresh state for a pass and runs one discarded
	// warm-up op. It is the timed set-up.
	setUp() error
	// ops is the number of operations a pass holds. It is fixed by the
	// workload and the --seconds flag, never by elapsed time, so two
	// runs on the same seed do identical work.
	ops() int
	// op runs operation i and returns the work units it delivered. sp
	// is nil on an untraced pass.
	op(i int, sp *spanRec) (units float64, err error)
	// check verifies operation i's output.
	check(i int, sp *spanRec) error
	// tearDown drops the state's on-disk footprint (untimed).
	tearDown()
	// layers adds the workload's per-layer metrics after a traced pass.
	layers(l *ledger, out map[string]float64)
}

// preparer is implemented by workloads that draw an op's inputs before
// the op starts, untimed.
type preparer interface {
	prepare(i int)
}

// passResult is what one measured pass observed.
type passResult struct {
	n, ok    int
	mismatch int // ops whose output was produced but wrong
	opDur    []time.Duration
	kernel   []time.Duration // the reference kernel's time before each op
	units    float64
	allocs   uint64
	gc       gcDelta
	firstErr error
}

// gcDelta is the runtime's GC accounting over one pass.
type gcDelta struct {
	cycles     uint64
	pauseNs    uint64
	allocBytes uint64
	gcCPU      float64
	busyCPU    float64
}

// rtNames are the runtime/metrics read around every op and pass.
var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/live:bytes",
}

const (
	rtAllocObjects = iota
	rtAllocBytes
	rtCycles
	rtGCCPU
	rtTotalCPU
	rtIdleCPU
	rtLive
)

// rtReader reads runtime/metrics without allocating.
type rtReader struct{ s []metrics.Sample }

func newRTReader() *rtReader {
	r := &rtReader{s: make([]metrics.Sample, len(rtNames))}
	for i, n := range rtNames {
		r.s[i].Name = n
	}
	return r
}

func (r *rtReader) read() { metrics.Read(r.s) }

func (r *rtReader) u(i int) uint64 {
	if r.s[i].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return r.s[i].Value.Uint64()
}

func (r *rtReader) f(i int) float64 {
	if r.s[i].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return r.s[i].Value.Float64()
}

// allocObjects returns the heap objects allocated so far.
func (r *rtReader) allocObjects() uint64 {
	metrics.Read(r.s[:1])
	return r.u(rtAllocObjects)
}

// kernelBuf is the reference kernel's input: 1 MiB of fixed bytes.
var kernelBuf = func() []byte {
	b := make([]byte, 1<<20)
	for i := range b {
		b[i] = byte(i*131 + i>>9)
	}
	return b
}()

var kernelSink [sha256.Size]byte

// kernel is the fixed, allocation-free stdlib reference work run just
// before each op: SHA-256 over 1 MiB. Dividing an op's time by the
// kernel's cancels host-speed drift that moves every op on a shared box.
func kernel() time.Duration {
	c0 := cpuNow()
	kernelSink = sha256.Sum256(kernelBuf)
	return cpuNow() - c0
}

var rusage syscall.Rusage

// cpuNow is the CPU time all of the process's threads have used: the
// clock that ops, the kernel and set-ups are timed on. Ops and set-ups
// run CPU-bound on one generator goroutine (no fsync, no sockets), so
// on a dedicated box it reads about what wall time reads. On a shared
// VM it leaves out the time the hypervisor gives other guests (steal),
// which Linux keeps out of task run time. On a 2-vCPU KVM guest, in
// 20 s runs with 5-7 s of steal, paper-regen's wall-time p50 read 25%
// and its p90 45-60% above runs without, its CPU time 12%. GC work on
// other threads is counted, as the op's allocation caused it.
func cpuNow() time.Duration {
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &rusage); err != nil {
		panic(err)
	}
	return time.Duration(rusage.Utime.Nano() + rusage.Stime.Nano())
}

// runPass runs every op of b once, timing each op alone.
func runPass(b bench, sp func(i int) *spanRec, rt *rtReader) passResult {
	n := b.ops()
	res := passResult{n: n, opDur: make([]time.Duration, 0, n), kernel: make([]time.Duration, 0, n)}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	rt.read()
	start := make([]metrics.Sample, len(rt.s))
	copy(start, rt.s)
	prep, _ := b.(preparer)
	for i := 0; i < n; i++ {
		if prep != nil {
			prep.prepare(i)
		}
		var rec *spanRec
		if sp != nil {
			rec = sp(i)
		}
		kd := kernel()
		a0 := rt.allocObjects()
		c0 := cpuNow()
		units, err := b.op(i, rec)
		d := cpuNow() - c0
		a1 := rt.allocObjects()
		res.allocs += a1 - a0
		res.opDur = append(res.opDur, d)
		res.kernel = append(res.kernel, kd)
		if err == nil {
			if cerr := b.check(i, rec); cerr != nil {
				err = cerr
				res.mismatch++
			}
		}
		rec.finish()
		if err != nil {
			if res.firstErr == nil {
				res.firstErr = fmt.Errorf("op %d: %w", i, err)
			}
			continue
		}
		res.ok++
		res.units += units
	}
	rt.read()
	runtime.ReadMemStats(&ms1)
	res.gc = gcDelta{
		cycles:     rt.u(rtCycles) - start[rtCycles].Value.Uint64(),
		pauseNs:    ms1.PauseTotalNs - ms0.PauseTotalNs,
		allocBytes: rt.u(rtAllocBytes) - start[rtAllocBytes].Value.Uint64(),
		gcCPU:      rt.f(rtGCCPU) - start[rtGCCPU].Value.Float64(),
		busyCPU: (rt.f(rtTotalCPU) - start[rtTotalCPU].Value.Float64()) -
			(rt.f(rtIdleCPU) - start[rtIdleCPU].Value.Float64()),
	}
	return res
}

// kernelP50 is the reference kernel's median time in the pass, in ms.
func (p passResult) kernelP50() float64 { return durQuantile(p.kernel, 0.5, time.Millisecond) }

// liveHeapMB forces a GC and reports the live heap in MiB. The caller
// keeps the workload's state reachable across the call.
func liveHeapMB(rt *rtReader) float64 {
	runtime.GC()
	rt.read()
	return float64(rt.u(rtLive)) / (1 << 20)
}

// setUpRepeated runs b's set-up reps times and returns the median time.
// Every earlier set-up is torn down before the next (untimed), so the
// last one's state is what the measured pass uses.
func setUpRepeated(b bench, reps int) (float64, error) {
	times := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		if r > 0 {
			b.tearDown()
		}
		runtime.GC()
		c0 := cpuNow()
		err := b.setUp()
		d := cpuNow() - c0
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, d.Seconds())
	}
	return quantile(times, 0.5), nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// durQuantile is quantile over durations, in the given unit.
func durQuantile(ds []time.Duration, q float64, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return quantile(xs, q)
}

// p90Block is the op count of the blocks op_ms.p90 is read over.
const p90Block = 20

// blockP90 is the median, over the pass's consecutive blocks of about
// p90Block ops, of each block's 90th-percentile op time, in ms. It is
// op_ms.p90 on workloads whose every op does the same work, where the
// op-time tail is the host's: contention on a shared box comes in bursts
// of a few seconds, a single p90 over the pass reads how many ops a
// burst hit, and the median over blocks drops a minority of blocks a
// burst slowed. A pass of fewer than p90Block ops is one block.
func blockP90(ds []time.Duration) float64 {
	nb := max(len(ds)/p90Block, 1)
	ps := make([]float64, nb)
	for b := range ps {
		ps[b] = durQuantile(ds[b*len(ds)/nb:(b+1)*len(ds)/nb], 0.9, time.Millisecond)
	}
	return quantile(ps, 0.5)
}

// endToEnd derives the eight end-to-end metrics from a pass. mixedOps
// marks a workload whose ops differ in the work they do; its op_ms.p90
// is the p90 over the whole pass, since its tail is the slow ops'.
func endToEnd(p passResult, setupS, heapMB float64, mixedOps bool) map[string]float64 {
	rel := make([]float64, len(p.opDur))
	var opTime time.Duration
	for i, d := range p.opDur {
		rel[i] = float64(d) / float64(p.kernel[i])
		opTime += d
	}
	p90 := blockP90(p.opDur)
	if mixedOps {
		p90 = durQuantile(p.opDur, 0.9, time.Millisecond)
	}
	return map[string]float64{
		"setup_s":       setupS,
		"op_ms.p50":     durQuantile(p.opDur, 0.5, time.Millisecond),
		"op_ms.p90":     p90,
		"op_rel.p50":    quantile(rel, 0.5),
		"work_per_s":    p.units / opTime.Seconds(),
		"allocs_per_op": float64(p.allocs) / float64(p.n),
		"live_heap_mb":  heapMB,
		"ok_share":      float64(p.ok) / float64(p.n),
	}
}

// gcLayers derives the gc.* per-layer metrics from a pass.
func gcLayers(p passResult, out map[string]float64) {
	n := float64(p.n)
	out["gc.cycles_per_op"] = float64(p.gc.cycles) / n
	out["gc.pause_us_per_op"] = float64(p.gc.pauseNs) / 1e3 / n
	if p.gc.busyCPU > 0 {
		out["gc.cpu_share"] = p.gc.gcCPU / p.gc.busyCPU
	}
	out["gc.alloc_mb_per_op"] = float64(p.gc.allocBytes) / (1 << 20) / n
}

// profilePass runs a pass under the CPU profiler, writing the profile
// to path.
func profilePass(b bench, rt *rtReader, path string) (passResult, error) {
	f, err := os.Create(path)
	if err != nil {
		return passResult{}, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return passResult{}, err
	}
	p := runPass(b, nil, rt)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return p, err
	}
	return p, nil
}
