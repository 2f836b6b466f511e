package obs

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// SketchTarget is one quantile a Sketch tracks, with the rank error the
// caller is willing to tolerate there. Epsilon is a fraction of the total
// observation count n: the value returned for Quantile(q) is guaranteed to
// have true rank within q·n ± Epsilon·n.
type SketchTarget struct {
	Quantile float64 // in (0, 1), e.g. 0.99
	Epsilon  float64 // allowed rank error as a fraction of n, e.g. 0.001
}

// DefaultSketchTargets track the latency quantiles the live service
// exports: the median and the tail. Tight epsilons at the tail keep p99
// honest on long runs; the bounds are what the sketch property test
// asserts against exact quantiles.
var DefaultSketchTargets = []SketchTarget{
	{Quantile: 0.5, Epsilon: 0.01},
	{Quantile: 0.9, Epsilon: 0.005},
	{Quantile: 0.95, Epsilon: 0.005},
	{Quantile: 0.99, Epsilon: 0.001},
}

// sketchSample is one stored tuple of the CKMS summary: a value, the
// number of observations it stands for (width), and the rank uncertainty
// it was inserted with (delta).
type sketchSample struct {
	value float64
	width float64
	delta float64
}

// Sketch is a bounded-memory streaming quantile estimator — the
// Cormode–Korn–Muthukrishnan–Srivastava "targeted quantiles" summary. A
// long-running server can push millions of observations through it and
// read p50/p95/p99 at any time; memory stays sublinear because adjacent
// samples merge whenever the invariant for every target still holds.
//
// Observations and queries are deterministic: the same sequence of
// Observe and Quantile calls produces the same stored tuples and the
// same answers (a query flushes the insert buffer, so it participates in
// the sequence), and re-querying an unchanged sketch never changes its
// state — two scrapes of an unchanged registry are byte-identical.
//
// A Sketch is not safe for concurrent use on its own; the Metrics
// registry serializes access under its lock.
type Sketch struct {
	targets []SketchTarget
	samples []sketchSample // sorted by value
	buf     []float64      // unsorted insert buffer
	n       float64        // observations folded into samples
	count   uint64
	sum     float64
	min     float64
	max     float64
}

// sketchBufCap is how many observations buffer before a flush+compress
// pass. Larger buffers amortize the O(samples) merge better; 512 keeps
// worst-case per-observation cost small and memory modest.
const sketchBufCap = 512

// NewSketch returns a sketch tracking the given targets
// (DefaultSketchTargets when none are given). Quantiles are clamped to
// (0, 1) and non-positive epsilons default to 0.01. The insert buffer
// starts empty and grows on demand up to sketchBufCap, so a sketch that
// sees a handful of observations — a fleet shard's per-key delta —
// costs a few words, not a reserved 4 KiB; Reset keeps whatever
// capacity it reached.
func NewSketch(targets ...SketchTarget) *Sketch {
	if len(targets) == 0 {
		targets = DefaultSketchTargets
	}
	ts := make([]SketchTarget, 0, len(targets))
	for _, t := range targets {
		if t.Quantile <= 0 || t.Quantile >= 1 {
			continue
		}
		if t.Epsilon <= 0 {
			t.Epsilon = 0.01
		}
		ts = append(ts, t)
	}
	slices.SortStableFunc(ts, func(a, b SketchTarget) int { return cmp.Compare(a.Quantile, b.Quantile) })
	return &Sketch{
		targets: ts,
		min:     math.Inf(1),
		max:     math.Inf(-1),
	}
}

// Targets returns a copy of the tracked quantile targets, ascending.
func (s *Sketch) Targets() []SketchTarget {
	return append([]SketchTarget(nil), s.targets...)
}

// Observe adds one observation.
func (s *Sketch) Observe(v float64) {
	s.count++
	s.sum += v
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	s.buf = append(s.buf, v)
	if len(s.buf) >= sketchBufCap {
		s.flush()
	}
}

// Count returns the number of observations.
func (s *Sketch) Count() uint64 { return s.count }

// Sum returns the sum of all observations.
func (s *Sketch) Sum() float64 { return s.sum }

// Min returns the smallest observation (+Inf when empty).
func (s *Sketch) Min() float64 { return s.min }

// Max returns the largest observation (-Inf when empty).
func (s *Sketch) Max() float64 { return s.max }

// Quantile returns a value whose rank is within the configured error of
// q·n. Each stored tuple carries an honest rank interval
// [rmin, rmin+delta] (rmin = prefix width sum); the query returns the
// tuple whose interval midpoint lies closest to the requested rank.
// Unlike the classic biased CKMS rule this stays correct when deltas
// exceed the maintenance envelope — which merged summaries legitimately
// do, since Merge's COMBINE rule widens deltas to carry the other
// summary's gap uncertainty. Querying a quantile between targets
// degrades gracefully; querying an empty sketch returns NaN.
func (s *Sketch) Quantile(q float64) float64 {
	s.flush()
	if len(s.samples) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return s.samples[0].value
	}
	if q >= 1 {
		return s.samples[len(s.samples)-1].value
	}
	t := q * s.n
	var r float64
	best := s.samples[0].value
	bestDist := math.Inf(1)
	for _, c := range s.samples {
		r += c.width
		if d := math.Abs(r + c.delta/2 - t); d < bestDist {
			bestDist = d
			best = c.value
		}
	}
	return best
}

// sketchSafety under-fills the invariant: tuples are kept twice as
// tight as each target's epsilon demands. Batched inserts, greedy
// compression AND shard merges all consume part of the theoretical error
// budget — COMBINE sums the gap uncertainties of every merged summary at
// a given rank — so enforcing ε/2 internally is what makes the
// *configured* ε hold in practice even after N-way fan-in (the property
// tests assert the configured bound against exact quantiles for single
// streams, shard merges and repeated collector folds).
const sketchSafety = 0.5

// invariant is the CKMS targeted-quantiles error function f(r, n): the
// maximum width+delta a tuple covering rank r may have while every
// target's rank guarantee still holds.
func (s *Sketch) invariant(r float64) float64 {
	minF := s.n + 1
	for _, t := range s.targets {
		eps := t.Epsilon * sketchSafety
		var f float64
		if r <= t.Quantile*s.n {
			f = 2 * eps * (s.n - r) / (1 - t.Quantile)
		} else {
			f = 2 * eps * r / t.Quantile
		}
		if f < minF {
			minF = f
		}
	}
	if minF < 1 {
		minF = 1
	}
	return minF
}

// Flush folds the buffered observations into the stored tuples.
// Queries and the binary encoding flush on their own; a caller flushes
// explicitly when it must fold the exact state it is about to encode.
func (s *Sketch) Flush() { s.flush() }

// flush sorts the buffer, merges it into the sample list and compresses.
func (s *Sketch) flush() {
	if len(s.buf) == 0 {
		return
	}
	sort.Float64s(s.buf)
	merged := make([]sketchSample, 0, len(s.samples)+len(s.buf))
	var r float64
	i := 0
	for _, v := range s.buf {
		for i < len(s.samples) && s.samples[i].value <= v {
			r += s.samples[i].width
			merged = append(merged, s.samples[i])
			i++
		}
		var delta float64
		if len(merged) > 0 && i < len(s.samples) {
			// A fresh observation's honest rank uncertainty is the local
			// gap: only observations covered by the next summary tuple can
			// still precede it. Cap at the invariant envelope — tighter
			// intervals mean tighter merged summaries and queries.
			delta = s.samples[i].width + s.samples[i].delta - 1
			if env := math.Floor(s.invariant(r)) - 1; delta > env {
				delta = env
			}
			if delta < 0 {
				delta = 0
			}
		}
		merged = append(merged, sketchSample{value: v, width: 1, delta: delta})
		s.n++
	}
	merged = append(merged, s.samples[i:]...)
	s.samples = merged
	s.buf = s.buf[:0]
	s.compress()
}

// compress greedily merges each tuple into its right neighbour while the
// combined width stays under the invariant, scanning right to left so a
// single pass reaches a locally minimal summary.
func (s *Sketch) compress() {
	if len(s.samples) < 2 {
		return
	}
	keep := s.samples[len(s.samples)-1]
	ki := len(s.samples) - 1
	r := s.n - 1 - keep.width
	for i := len(s.samples) - 2; i >= 0; i-- {
		c := s.samples[i]
		if i > 0 && c.width+keep.width+keep.delta <= s.invariant(r) {
			keep.width += c.width
		} else {
			s.samples[ki] = keep
			ki--
			keep = c
		}
		r -= c.width
	}
	s.samples[ki] = keep
	s.samples = s.samples[ki:]
}

// Merge folds another sketch into this one, preserving the configured
// rank-error bounds. Only stored tuples go through COMBINE: the two
// tuple lists are merged by value with the Greenwald–Khanna delta rule,
// where a tuple drawn from one summary inherits the rank uncertainty of
// the other summary's gap at that position (delta += width+delta−1 of
// the other list's first tuple not below it). Absolute rank errors add
// under this merge — ε/2·n₁ + ε/2·n₂ = ε/2·n with each input maintained
// at the internal ε/2 safety envelope — and because the widened deltas
// honestly carry the combined uncertainty, the trailing compress cannot
// over-merge past the invariant, so the *configured* ε survives
// arbitrarily deep fan-in (the property tests assert it against exact
// quantiles after N-way shard merges and hundreds of repeated collector
// ticks).
//
// Buffered raw observations skip COMBINE: o's buffer is appended to the
// receiver's, which flushes once if it reached sketchBufCap. They pick
// up no widening, so they are as exact as if the receiver had observed
// them. Merging two buffer-only sketches therefore runs no COMBINE pass
// and allocates nothing beyond buffer growth — the common case in fleet
// fan-in, where each shard delta holds a few raw values.
//
// a.Merge(b) and b.Merge(a) leave identical state: COMBINE emits equal
// tuples from both sides together, each widened by the other's, the
// compress runs whenever either side has tuples, and the single flush
// comes after both buffers are in. The receiver is mutated; o is left
// unchanged (it is not flushed). Both sketches should track the same
// targets (the receiver's targets govern the merged summary).
func (s *Sketch) Merge(o *Sketch) {
	if o == nil || o.Count() == 0 {
		return
	}
	if len(s.samples) > 0 || len(o.samples) > 0 {
		s.samples = combine(s.samples, o.samples)
		s.n += o.n
		s.compress()
	}
	s.count += o.count
	s.sum += o.sum
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.buf = append(s.buf, o.buf...)
	if len(s.buf) >= sketchBufCap {
		s.flush()
	}
}

// combine merges two tuple lists by value under the COMBINE delta rule.
// It is symmetric in its arguments: equal tuples from both lists are
// emitted as a pair, each widened by the other. When either list is
// empty the result reuses a's storage; otherwise it is a fresh slice.
func combine(a, b []sketchSample) []sketchSample {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return append(a, b...)
	}
	// gap is how many of a summary's observations may still precede a
	// tuple from the other summary that sorts before its tuple c.
	gap := func(c sketchSample) float64 { return c.width + c.delta - 1 }
	merged := make([]sketchSample, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		switch {
		case tupleLess(x, y):
			x.delta += gap(y)
			merged = append(merged, x)
			i++
		case tupleLess(y, x):
			y.delta += gap(x)
			merged = append(merged, y)
			j++
		default:
			x.delta += gap(y)
			merged = append(merged, x, x)
			i++
			j++
		}
	}
	merged = append(merged, a[i:]...)
	return append(merged, b[j:]...)
}

// MergeSketches builds one summary over N sketches: inputs are flushed
// and folded pairwise in a canonical order (lexicographic over their
// tuple lists), so the result is exactly order-invariant — any
// permutation of sketches yields a summary that answers every quantile
// identically. Fleet fan-in does not use it: it folds shard deltas in
// a fixed shard order instead. Inputs are flushed but otherwise
// unchanged; targets come from the first non-nil input
// (DefaultSketchTargets when there are none).
func MergeSketches(sketches ...*Sketch) *Sketch {
	var out *Sketch
	srcs := make([]*Sketch, 0, len(sketches))
	for _, sk := range sketches {
		if sk == nil {
			continue
		}
		if out == nil {
			out = NewSketch(sk.targets...)
		}
		sk.flush()
		srcs = append(srcs, sk)
	}
	if out == nil {
		return NewSketch()
	}
	sort.SliceStable(srcs, func(i, j int) bool { return tuplesLess(srcs[i].samples, srcs[j].samples) })
	for _, sk := range srcs {
		out.Merge(sk)
	}
	return out
}

// tuplesLess orders whole tuple lists lexicographically — the canonical
// fold order behind MergeSketches' order invariance.
func tuplesLess(a, b []sketchSample) bool {
	for k := 0; k < len(a) && k < len(b); k++ {
		if a[k] != b[k] {
			return tupleLess(a[k], b[k])
		}
	}
	return len(a) < len(b)
}

// Reset empties the sketch in place, keeping its targets and capacity —
// the fan-in loop drains per-shard delta sketches this way instead of
// reallocating them every tick.
func (s *Sketch) Reset() {
	s.samples = s.samples[:0]
	s.buf = s.buf[:0]
	s.n = 0
	s.count = 0
	s.sum = 0
	s.min = math.Inf(1)
	s.max = math.Inf(-1)
}

// tupleLess is the deterministic merge order: by value, with width and
// delta breaking ties so equal-valued tuples from different shards always
// interleave the same way regardless of argument order.
func tupleLess(a, b sketchSample) bool {
	if a.value != b.value {
		return a.value < b.value
	}
	if a.width != b.width {
		return a.width < b.width
	}
	return a.delta < b.delta
}
