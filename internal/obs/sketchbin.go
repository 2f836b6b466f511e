package obs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"github.com/browsermetric/browsermetric/internal/frame"
)

// Binary sketch codec: the exact-state serialization the fleet wire
// format ships collector delta sketches with. The encoding is canonical
// and lossless — every stored tuple's (value, width, delta) float64 bits
// travel verbatim, so a decoded sketch is indistinguishable from the
// original: Merge folds it with bit-identical results, which is what
// reduces cross-node fan-in correctness to "the codec round-trips"
// (the GK COMBINE machinery is already order-invariant and
// property-tested in-process).
//
// Layout (the internal/frame payload grammar: integers little-endian,
// floats as IEEE 754 bits, uvarints minimal):
//
//	u8       codec version (sketchBinVersion)
//	uvarint  target count
//	         per target: f64 quantile, f64 epsilon
//	f64      n (observations folded into tuples)
//	u64      count
//	f64      sum, min, max
//	uvarint  tuple count
//	         per tuple: f64 value, f64 width, f64 delta
//
// The encoder flushes first, so the insert buffer never appears on the
// wire and n == count exactly.

// sketchBinVersion is the codec version byte; decoders reject anything
// else so a future layout change cannot be misparsed as tuples.
const sketchBinVersion = 1

// sketchBinMaxTargets bounds the decoded target list; real sketches
// track a handful of quantiles, so anything larger is corruption.
const sketchBinMaxTargets = 64

// ErrSketchCorrupt is returned (possibly wrapped) by DecodeSketch for
// any input that is not a well-formed, self-consistent encoding.
var ErrSketchCorrupt = errors.New("obs: corrupt sketch encoding")

// AppendBinary appends the canonical binary encoding of the sketch to b
// and returns the extended slice. The receiver is flushed (buffered
// observations fold into tuples) but is otherwise unchanged; equal
// sketch states encode to identical bytes.
func (s *Sketch) AppendBinary(b []byte) []byte {
	s.flush()
	b = append(b, sketchBinVersion)
	b = binary.AppendUvarint(b, uint64(len(s.targets)))
	for _, t := range s.targets {
		b = frame.AppendF64(b, t.Quantile)
		b = frame.AppendF64(b, t.Epsilon)
	}
	b = frame.AppendF64(b, s.n)
	b = binary.LittleEndian.AppendUint64(b, s.count)
	b = frame.AppendF64(b, s.sum)
	b = frame.AppendF64(b, s.min)
	b = frame.AppendF64(b, s.max)
	b = binary.AppendUvarint(b, uint64(len(s.samples)))
	for _, c := range s.samples {
		b = frame.AppendF64(b, c.value)
		b = frame.AppendF64(b, c.width)
		b = frame.AppendF64(b, c.delta)
	}
	return b
}

// EncodedLen is the length AppendBinary appends, so a container can
// write the blob's length prefix and then encode the sketch in place.
// Like AppendBinary it flushes the receiver.
func (s *Sketch) EncodedLen() int {
	s.flush()
	// A uvarint carries 7 bits per byte.
	size := func(n int) int { return (bits.Len64(uint64(n)|1) + 6) / 7 }
	return 1 + size(len(s.targets)) + 16*len(s.targets) + 5*8 + size(len(s.samples)) + 24*len(s.samples)
}

// DecodeSketch parses one sketch encoding occupying the whole of b. It
// rejects truncated, oversized, version-mismatched, non-minimal and
// structurally inconsistent inputs (unsorted targets or tuples,
// non-positive widths, NaN state, width sum disagreeing with n), so a
// torn or bit-flipped wire payload surfaces as an error rather than a
// silently skewed summary.
func DecodeSketch(b []byte) (*Sketch, error) {
	r := frame.NewReader(b)
	if v := r.U8(); v != sketchBinVersion {
		return nil, fmt.Errorf("%w: version %d", ErrSketchCorrupt, v)
	}
	targets := make([]SketchTarget, r.Count(sketchBinMaxTargets, 16))
	for i := range targets {
		q, eps := r.F64(), r.F64()
		if !(q > 0 && q < 1) || !(eps > 0 && eps <= 1) {
			return nil, fmt.Errorf("%w: target %d", ErrSketchCorrupt, i)
		}
		if i > 0 && q <= targets[i-1].Quantile {
			return nil, fmt.Errorf("%w: targets not ascending", ErrSketchCorrupt)
		}
		targets[i] = SketchTarget{Quantile: q, Epsilon: eps}
	}
	n, count, sum, minV, maxV := r.F64(), r.U64(), r.F64(), r.F64(), r.F64()
	if math.IsNaN(n) || math.IsNaN(sum) || math.IsNaN(minV) || math.IsNaN(maxV) {
		return nil, fmt.Errorf("%w: NaN state", ErrSketchCorrupt)
	}
	samples := make([]sketchSample, r.Count(math.MaxInt, 24))
	var widthSum float64
	for i := range samples {
		c := sketchSample{value: r.F64(), width: r.F64(), delta: r.F64()}
		if math.IsNaN(c.value) || math.IsNaN(c.width) || math.IsNaN(c.delta) || c.width < 1 || c.delta < 0 {
			return nil, fmt.Errorf("%w: tuple %d out of range", ErrSketchCorrupt, i)
		}
		if i > 0 && c.value < samples[i-1].value {
			return nil, fmt.Errorf("%w: tuples not sorted", ErrSketchCorrupt)
		}
		widthSum += c.width
		samples[i] = c
	}
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSketchCorrupt, err)
	}
	// Cross-field consistency: the encoder writes flushed sketches, where
	// the tuple widths sum exactly to n and n mirrors count (widths are
	// integer-valued floats, so the sum is exact).
	if widthSum != n || float64(count) != n {
		return nil, fmt.Errorf("%w: width sum %g != n %g (count %d)", ErrSketchCorrupt, widthSum, n, count)
	}
	ns := len(samples)
	if ns > 0 && (minV > samples[0].value || maxV < samples[ns-1].value || minV > maxV) {
		return nil, fmt.Errorf("%w: min/max inconsistent", ErrSketchCorrupt)
	}
	// An empty sketch's min/max are the ±Inf sentinels; other values
	// would not survive the round trip. Nor may it carry a sum: that
	// would be a total with no observations behind it.
	if ns == 0 && (count != 0 || sum != 0 || !math.IsInf(minV, 1) || !math.IsInf(maxV, -1)) {
		return nil, fmt.Errorf("%w: empty sketch with count, sum or min/max", ErrSketchCorrupt)
	}
	s := NewSketch(targets...)
	if len(s.targets) != len(targets) {
		// NewSketch filtered something the checks above admitted.
		return nil, fmt.Errorf("%w: unusable targets", ErrSketchCorrupt)
	}
	s.samples = samples
	s.n, s.count, s.sum, s.min, s.max = n, count, sum, minV, maxV
	return s, nil
}
