package obs

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// checkMergedBound asserts that a merged sketch's estimate for every
// configured target has true rank within q·n ± ε·n against the exact
// sorted data — the *configured* bound, not a summed one: Merge has to
// preserve what NewSketch promised.
func checkMergedBound(t *testing.T, name string, sk *Sketch, sorted []float64) {
	t.Helper()
	n := float64(len(sorted))
	if sk.Count() != uint64(len(sorted)) {
		t.Fatalf("%s: merged count = %d, want %d", name, sk.Count(), len(sorted))
	}
	for _, target := range sk.Targets() {
		est := sk.Quantile(target.Quantile)
		lo, hi := exactRankBand(sorted, est)
		wantLo := (target.Quantile-target.Epsilon)*n - 1
		wantHi := (target.Quantile+target.Epsilon)*n + 1
		if float64(hi) < wantLo || float64(lo) > wantHi {
			t.Errorf("%s: q=%g est=%g rank band [%d,%d] outside [%.0f,%.0f] (ε=%g)",
				name, target.Quantile, est, lo, hi, wantLo, wantHi, target.Epsilon)
		}
	}
}

// shardData deals one data set across k sketches round-robin, the way
// fleet sessions land in shards.
func shardData(data []float64, k int) []*Sketch {
	shards := make([]*Sketch, k)
	for i := range shards {
		shards[i] = NewSketch()
	}
	for i, v := range data {
		shards[i%k].Observe(v)
	}
	return shards
}

// TestSketchMergePreservesBoundNShards is the fan-in property test: the
// merge of N shard sketches obeys each per-target rank-error bound
// against exact quantiles, for several distribution shapes including the
// bimodal Java-timer shape, several shard counts, and both fold styles
// (pairwise Merge and k-way MergeSketches).
func TestSketchMergePreservesBoundNShards(t *testing.T) {
	shapes := []struct {
		name string
		gen  func(rng *rand.Rand, n int) []float64
	}{
		{"uniform", func(rng *rand.Rand, n int) []float64 {
			d := make([]float64, n)
			for i := range d {
				d[i] = rng.Float64() * 100
			}
			return d
		}},
		{"exponential", func(rng *rand.Rand, n int) []float64 {
			d := make([]float64, n)
			for i := range d {
				d[i] = rng.ExpFloat64() * 10
			}
			return d
		}},
		{"bimodal-java-timer", func(rng *rand.Rand, n int) []float64 {
			return javaTimerBimodal(n, rng.Int63())
		}},
	}
	for _, shape := range shapes {
		for _, k := range []int{2, 8, 32} {
			rng := rand.New(rand.NewSource(int64(1000 + k)))
			data := shape.gen(rng, 60000)
			sorted := append([]float64(nil), data...)
			sort.Float64s(sorted)

			shards := shardData(data, k)
			folded := NewSketch()
			for _, sh := range shards {
				folded.Merge(sh)
			}
			checkMergedBound(t, shape.name+"/pairwise", folded, sorted)

			shards = shardData(data, k)
			kway := MergeSketches(shards...)
			checkMergedBound(t, shape.name+"/kway", kway, sorted)
		}
	}
}

// TestSketchMergeBimodalValley pins the dashboard-facing property on the
// paper's hardest shape: after a shard merge of the Windows Java-timer
// distribution, the median still sits in a mode, never in the empty
// valley between them.
func TestSketchMergeBimodalValley(t *testing.T) {
	data := javaTimerBimodal(80000, 99)
	merged := MergeSketches(shardData(data, 16)...)
	if p50 := merged.Quantile(0.5); p50 > 1 && p50 < 15 {
		t.Fatalf("merged p50 = %g ms sits in the empty valley between the modes", p50)
	}
}

// TestSketchMergeOrderInvariance: MergeSketches answers every target
// quantile identically for any permutation of its inputs, and pairwise
// Merge is symmetric (a into b ≡ b into a).
func TestSketchMergeOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]float64, 40000)
	for i := range data {
		data[i] = rng.ExpFloat64() * 5
	}
	const k = 8
	queries := []float64{0.25, 0.5, 0.9, 0.95, 0.99}

	answers := func(sk *Sketch) []float64 {
		out := make([]float64, len(queries))
		for i, q := range queries {
			out[i] = sk.Quantile(q)
		}
		return out
	}

	base := answers(MergeSketches(shardData(data, k)...))
	for trial := 0; trial < 5; trial++ {
		shards := shardData(data, k)
		rng.Shuffle(len(shards), func(i, j int) { shards[i], shards[j] = shards[j], shards[i] })
		got := answers(MergeSketches(shards...))
		for i := range queries {
			if got[i] != base[i] {
				t.Fatalf("k-way merge order changed q=%g: %g vs %g (trial %d)",
					queries[i], got[i], base[i], trial)
			}
		}
	}

	ab := shardData(data, 2)
	ba := shardData(data, 2)
	ab[0].Merge(ab[1])
	ba[1].Merge(ba[0])
	for _, q := range queries {
		if av, bv := ab[0].Quantile(q), ba[1].Quantile(q); av != bv {
			t.Fatalf("pairwise merge not symmetric at q=%g: %g vs %g", q, av, bv)
		}
	}
}

// TestSketchMergeRepeatedFanIn models the fleet collector: a cumulative
// global sketch absorbs many small delta sketches over many ticks, and
// the configured bound must still hold at the end — repeated merging
// must not compound error past ε.
func TestSketchMergeRepeatedFanIn(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	global := NewSketch()
	var all []float64
	for tick := 0; tick < 200; tick++ {
		delta := NewSketch()
		for i := 0; i < 300; i++ {
			v := rng.ExpFloat64() * 10
			all = append(all, v)
			delta.Observe(v)
		}
		global.Merge(delta)
	}
	sort.Float64s(all)
	checkMergedBound(t, "repeated-fanin", global, all)
}

// TestSketchMergeStatsAndEdges: moment bookkeeping merges exactly, empty
// and nil inputs are no-ops, and Reset returns a sketch to its empty
// state without touching targets.
func TestSketchMergeStatsAndEdges(t *testing.T) {
	a, b := NewSketch(), NewSketch()
	for i := 1; i <= 100; i++ {
		a.Observe(float64(i))
	}
	for i := 101; i <= 200; i++ {
		b.Observe(float64(i))
	}
	a.Merge(b)
	if a.Count() != 200 || a.Min() != 1 || a.Max() != 200 {
		t.Fatalf("merged stats: count=%d min=%g max=%g", a.Count(), a.Min(), a.Max())
	}
	if want := 200.0 * 201 / 2; a.Sum() != want {
		t.Fatalf("merged sum = %g, want %g", a.Sum(), want)
	}

	before := a.Count()
	a.Merge(nil)
	a.Merge(NewSketch())
	if a.Count() != before {
		t.Fatalf("merging nil/empty changed count: %d -> %d", before, a.Count())
	}

	empty := NewSketch()
	empty.Merge(a)
	if empty.Count() != 200 {
		t.Fatalf("merge into empty: count=%d", empty.Count())
	}
	if p50 := empty.Quantile(0.5); p50 < 90 || p50 > 110 {
		t.Fatalf("merge into empty: p50=%g", p50)
	}

	a.Reset()
	if a.Count() != 0 || a.Len() != 0 || a.Sum() != 0 {
		t.Fatalf("after Reset: count=%d len=%d sum=%g", a.Count(), a.Len(), a.Sum())
	}
	if !math.IsInf(a.Min(), 1) || !math.IsInf(a.Max(), -1) {
		t.Fatalf("after Reset: min=%g max=%g", a.Min(), a.Max())
	}
	if !math.IsNaN(a.Quantile(0.5)) {
		t.Fatal("after Reset: quantile should be NaN")
	}
	if len(a.Targets()) != len(DefaultSketchTargets) {
		t.Fatalf("Reset dropped targets: %d", len(a.Targets()))
	}
	// A reset sketch is reusable: observe again and query.
	for i := 0; i < 1000; i++ {
		a.Observe(float64(i))
	}
	if p50 := a.Quantile(0.5); p50 < 480 || p50 > 520 {
		t.Fatalf("reused sketch p50=%g", p50)
	}

	if got := MergeSketches(); got.Count() != 0 {
		t.Fatalf("MergeSketches() of nothing: count=%d", got.Count())
	}
	if got := MergeSketches(nil, nil); got.Count() != 0 {
		t.Fatalf("MergeSketches(nil,nil): count=%d", got.Count())
	}
}

// TestSketchMergeStaysCompressed pins the memory side of fan-in: merging
// 32 shards of 1e5 total observations must still compress to a bounded
// summary, not the concatenation of the inputs.
func TestSketchMergeStaysCompressed(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data := make([]float64, 100000)
	for i := range data {
		data[i] = rng.NormFloat64()*3 + 20
	}
	merged := MergeSketches(shardData(data, 32)...)
	if merged.Len() > 2000 {
		t.Fatalf("merged sketch holds %d tuples, want <= 2000", merged.Len())
	}
}

// BenchmarkSketchMerge measures one tuple-to-tuple fold: a cumulative
// sketch absorbing a compressed 512-observation delta sketch (per key,
// the cumulative fold of one fleet fan-in tick).
func BenchmarkSketchMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	global := NewSketch()
	for i := 0; i < 100000; i++ {
		global.Observe(rng.ExpFloat64() * 10)
	}
	deltas := make([]*Sketch, 64)
	for i := range deltas {
		deltas[i] = NewSketch()
		for j := 0; j < 512; j++ {
			deltas[i].Observe(rng.ExpFloat64() * 10)
		}
		deltas[i].flush()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		global.Merge(deltas[i%len(deltas)])
	}
}

// BenchmarkSketchMergeKWay measures the snapshot-building fold: 32 shard
// sketches merged into one fresh summary.
func BenchmarkSketchMergeKWay(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	shards := make([]*Sketch, 32)
	for i := range shards {
		shards[i] = NewSketch()
		for j := 0; j < 4096; j++ {
			shards[i].Observe(rng.ExpFloat64() * 10)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MergeSketches(shards...)
	}
}

// splitSketch observes vals into a default sketch and flushes the first
// k of them into tuples, leaving the rest in the insert buffer (a tail
// of sketchBufCap or more flushes on its own): the tuple and buffer
// states Merge treats differently.
func splitSketch(vals []float64, k int) *Sketch {
	k = min(max(k, 0), len(vals))
	sk := NewSketch()
	for _, v := range vals[:k] {
		sk.Observe(v)
	}
	sk.flush()
	for _, v := range vals[k:] {
		sk.Observe(v)
	}
	return sk
}

// eighths draws n values on a 1/8 grid, so sums are exact in any order
// and small ranges produce ties.
func eighths(rng *rand.Rand, n, span int) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = float64(rng.Intn(span)) / 8
	}
	return d
}

// checkMergeSymmetric merges a into b and b into a, from fresh sketches
// built by splitting av at ak and bv at bk, and requires identical
// encoded state both ways plus conserved count, sum, min and max. It
// returns the a-into-b result.
func checkMergeSymmetric(t *testing.T, name string, av []float64, ak int, bv []float64, bk int) *Sketch {
	t.Helper()
	ab := splitSketch(av, ak)
	ab.Merge(splitSketch(bv, bk))
	ba := splitSketch(bv, bk)
	ba.Merge(splitSketch(av, ak))
	if string(ab.AppendBinary(nil)) != string(ba.AppendBinary(nil)) {
		t.Fatalf("%s: a.Merge(b) and b.Merge(a) differ", name)
	}
	all := append(append([]float64(nil), av...), bv...)
	var sum float64
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range all {
		sum += v
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if ab.Count() != uint64(len(all)) || ab.Sum() != sum || ab.Min() != lo || ab.Max() != hi {
		t.Fatalf("%s: merged count=%d sum=%g min=%g max=%g, want %d %g %g %g",
			name, ab.Count(), ab.Sum(), ab.Min(), ab.Max(), len(all), sum, lo, hi)
	}
	return ab
}

// TestSketchMergeBufferedIsExact: merging buffer-only sketches whose
// union stays under sketchBufCap leaves the same summary as one sketch
// that observed the union, so every quantile answers identically, and
// into a receiver with buffer room it allocates nothing.
func TestSketchMergeBufferedIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	parts := [][]float64{eighths(rng, 200, 4000), eighths(rng, 150, 4000), eighths(rng, 100, 40)}
	merged, direct := NewSketch(), NewSketch()
	srcs := make([]*Sketch, len(parts))
	for i, p := range parts {
		srcs[i] = splitSketch(p, 0)
		merged.Merge(srcs[i])
		for _, v := range p {
			direct.Observe(v)
		}
	}
	if merged.Len() != direct.Len() || merged.Count() != direct.Count() {
		t.Fatalf("merged len=%d count=%d, direct len=%d count=%d",
			merged.Len(), merged.Count(), direct.Len(), direct.Count())
	}
	for i := 0; i <= 1000; i++ {
		q := float64(i) / 1000
		if m, d := merged.Quantile(q), direct.Quantile(q); m != d {
			t.Fatalf("q=%g: merged %g, direct %g", q, m, d)
		}
	}
	if string(merged.AppendBinary(nil)) != string(direct.AppendBinary(nil)) {
		t.Fatal("merged and direct sketches encode differently")
	}

	dst := NewSketch()
	for i := 0; i < sketchBufCap-1; i++ {
		dst.Observe(0)
	}
	dst.Reset()
	if allocs := testing.AllocsPerRun(100, func() {
		dst.Reset()
		for _, sk := range srcs {
			dst.Merge(sk)
		}
	}); allocs != 0 {
		t.Fatalf("buffer-only merge allocated %.1f objects, want 0", allocs)
	}
}

// TestSketchMergeSymmetricAndConserving: a.Merge(b) ≡ b.Merge(a) for
// buffer-only, tuple-only and mixed inputs, including heavy ties, and
// count, sum, min and max are conserved.
func TestSketchMergeSymmetricAndConserving(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, span := range []int{80000, 16} {
		av, bv := eighths(rng, 3000, span), eighths(rng, 2200, span)
		cases := []struct {
			name           string
			na, ak, nb, bk int // list lengths and how many of each are flushed
		}{
			{"buffer-only", 300, 0, 150, 0},
			{"tuple-only", 3000, 3000, 2200, 2200},
			{"tuples-into-buffer", 3000, 3000, 300, 0},
			{"buffer-into-tuples", 300, 0, 2200, 2200},
			{"mixed", 3000, 2900, 2200, 1700},
		}
		for _, c := range cases {
			a, b := av[:c.na], bv[:c.nb]
			sk := checkMergeSymmetric(t, c.name, a, c.ak, b, c.bk)
			sorted := append(append([]float64(nil), a...), b...)
			sort.Float64s(sorted)
			checkMergedBound(t, c.name, sk, sorted)
		}
	}
}

// FuzzSketchMerge checks Merge on two fuzzed value lists, each split at
// a fuzzed point into flushed tuples and buffered values: the merge is
// symmetric, conserves count, sum, min and max, and keeps every target
// within its configured rank error. Values are 2-byte words on a 1/16
// grid, so sums are exact and ties are common.
func FuzzSketchMerge(f *testing.F) {
	words := func(n int, step uint16) []byte {
		b := make([]byte, 2*n)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint16(b[2*i:], uint16(i)*step)
		}
		return b
	}
	f.Add(words(10, 3), uint16(0), words(7, 5), uint16(0))
	f.Add(words(600, 7), uint16(600), words(900, 11), uint16(900))
	f.Add(words(1200, 1), uint16(700), words(40, 0), uint16(20))
	f.Add(words(2000, 13), uint16(1999), words(513, 2), uint16(1))
	f.Fuzz(func(t *testing.T, a []byte, ak uint16, b []byte, bk uint16) {
		const maxVals = 4096
		decode := func(p []byte) []float64 {
			vals := make([]float64, 0, min(len(p)/2, maxVals))
			for i := 0; i+1 < len(p) && len(vals) < maxVals; i += 2 {
				vals = append(vals, float64(binary.LittleEndian.Uint16(p[i:]))/16)
			}
			return vals
		}
		av, bv := decode(a), decode(b)
		if len(av)+len(bv) == 0 {
			return
		}
		sk := checkMergeSymmetric(t, "fuzz", av, int(ak), bv, int(bk))
		sorted := append(append([]float64(nil), av...), bv...)
		sort.Float64s(sorted)
		checkMergedBound(t, "fuzz", sk, sorted)
	})
}
