package obs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
)

func randomSketch(t *testing.T, seed int64, n int) *Sketch {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := NewSketch()
	for i := 0; i < n; i++ {
		v := 10 + rng.ExpFloat64()*25
		if rng.Intn(4) == 0 {
			v = 200 + rng.NormFloat64()*5 // bimodal tail, like the Java-timer shape
		}
		s.Observe(v)
	}
	return s
}

// TestSketchBinaryRoundTripExact is the codec's core contract: a decoded
// sketch is byte-for-byte the same state as the (flushed) original —
// identical re-encoding, identical answers at every quantile.
func TestSketchBinaryRoundTripExact(t *testing.T) {
	for _, n := range []int{0, 1, 7, 512, 5000} {
		s := randomSketch(t, int64(n)+1, n)
		enc := s.AppendBinary(nil)
		got, err := DecodeSketch(enc)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if !bytes.Equal(got.AppendBinary(nil), enc) {
			t.Fatalf("n=%d: re-encoding differs from original encoding", n)
		}
		if got.Count() != s.Count() || got.Sum() != s.Sum() {
			t.Fatalf("n=%d: count/sum diverged", n)
		}
		if n > 0 && (got.Min() != s.Min() || got.Max() != s.Max()) {
			t.Fatalf("n=%d: min/max diverged", n)
		}
		for _, q := range []float64{0.01, 0.5, 0.9, 0.95, 0.99, 0.999} {
			a, b := s.Quantile(q), got.Quantile(q)
			if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
				t.Fatalf("n=%d: Quantile(%g) = %g, decoded %g", n, q, a, b)
			}
		}
	}
}

// TestSketchBinaryMergeBitIdentical: merging decoded copies behaves
// bitwise identically to merging the originals — the reduction the wire
// format's correctness claim rests on.
func TestSketchBinaryMergeBitIdentical(t *testing.T) {
	a := randomSketch(t, 1, 3000)
	b := randomSketch(t, 2, 800)
	da, err := DecodeSketch(a.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	db, err := DecodeSketch(b.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	a.Merge(b)
	da.Merge(db)
	if !bytes.Equal(a.AppendBinary(nil), da.AppendBinary(nil)) {
		t.Fatal("merge of decoded sketches diverged from in-process merge")
	}
}

// TestSketchBinaryEncodeDeterministic: equal states encode identically,
// and encoding twice does not mutate the sketch.
func TestSketchBinaryEncodeDeterministic(t *testing.T) {
	s := randomSketch(t, 7, 1000)
	first := s.AppendBinary(nil)
	second := s.AppendBinary(nil)
	if !bytes.Equal(first, second) {
		t.Fatal("repeated encoding differs")
	}
	s2 := randomSketch(t, 7, 1000)
	if !bytes.Equal(s2.AppendBinary(nil), first) {
		t.Fatal("equal ingest histories encode differently")
	}
}

func TestSketchBinaryCustomTargets(t *testing.T) {
	s := NewSketch(SketchTarget{Quantile: 0.25, Epsilon: 0.02}, SketchTarget{Quantile: 0.75, Epsilon: 0.004})
	for i := 0; i < 100; i++ {
		s.Observe(float64(i))
	}
	got, err := DecodeSketch(s.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	want := s.Targets()
	ts := got.Targets()
	if len(ts) != len(want) {
		t.Fatalf("targets = %v, want %v", ts, want)
	}
	for i := range ts {
		if ts[i] != want[i] {
			t.Fatalf("target %d = %+v, want %+v", i, ts[i], want[i])
		}
	}
}

// TestSketchBinaryRejectsCorruption walks the reject paths: truncation
// at every prefix, a flipped byte almost anywhere, version and trailing
// garbage.
func TestSketchBinaryRejectsCorruption(t *testing.T) {
	s := randomSketch(t, 3, 2000)
	enc := s.AppendBinary(nil)

	if _, err := DecodeSketch(nil); !errors.Is(err, ErrSketchCorrupt) {
		t.Fatalf("empty input: err = %v", err)
	}
	for cut := 0; cut < len(enc); cut += 7 {
		if _, err := DecodeSketch(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	bad := append([]byte(nil), enc...)
	bad[0] = sketchBinVersion + 1
	if _, err := DecodeSketch(bad); !errors.Is(err, ErrSketchCorrupt) {
		t.Fatalf("bad version: err = %v", err)
	}
	trailing := append(append([]byte(nil), enc...), 0x00)
	if _, err := DecodeSketch(trailing); !errors.Is(err, ErrSketchCorrupt) {
		t.Fatalf("trailing byte: err = %v", err)
	}
	// A flipped width bit breaks the width-sum/n consistency check.
	flipped := append([]byte(nil), enc...)
	flipped[len(flipped)-10] ^= 0x40
	if dec, err := DecodeSketch(flipped); err == nil {
		// A flip may land somewhere harmless to structure (e.g. a delta);
		// in that case the decode must at least be self-consistent.
		if !bytes.Equal(dec.AppendBinary(nil), flipped) {
			t.Fatal("accepted a decode that does not round-trip")
		}
	}
}

// TestSketchBinaryRejectsOverflowingTupleCount: a tuple count chosen so
// that count*24 wraps the uint64 remaining-bytes bound must be rejected
// before allocation, not panic in make. 768614336404564651*24 ==
// 2^64 + 8, so the wrapped product is 8 — small enough to pass a
// multiplication-based bound when >= 8 bytes of input remain.
func TestSketchBinaryRejectsOverflowingTupleCount(t *testing.T) {
	enc := NewSketch().AppendBinary(nil)
	// The encoding of an empty sketch ends with the one-byte tuple count
	// 0; replace it with the overflowing count and 8 padding bytes.
	crafted := append([]byte(nil), enc[:len(enc)-1]...)
	crafted = binary.AppendUvarint(crafted, 768614336404564651)
	crafted = append(crafted, make([]byte, 8)...)
	if _, err := DecodeSketch(crafted); !errors.Is(err, ErrSketchCorrupt) {
		t.Fatalf("overflowing tuple count: err = %v, want ErrSketchCorrupt", err)
	}
}

// TestSketchBinaryRejectsInconsistentEmpty: a sketch with no tuples
// must carry count 0, sum 0 and the ±Inf min/max sentinels; any other
// value in one of those fields is corrupt.
func TestSketchBinaryRejectsInconsistentEmpty(t *testing.T) {
	empty := NewSketch().AppendBinary(nil)
	if _, err := DecodeSketch(empty); err != nil {
		t.Fatalf("empty sketch rejected: %v", err)
	}
	// The empty encoding ends count, sum, min, max (8 bytes each), then
	// the one-byte tuple count.
	for _, tc := range []struct {
		name string
		back int // offset of the field from the end of the encoding
		bits uint64
	}{
		{"count", 33, 1},
		{"sum", 25, 0x3030303030303030},
		{"min", 17, 0},
		{"max", 9, 0},
	} {
		bad := append([]byte(nil), empty...)
		binary.LittleEndian.PutUint64(bad[len(bad)-tc.back:], tc.bits)
		if _, err := DecodeSketch(bad); !errors.Is(err, ErrSketchCorrupt) {
			t.Errorf("empty sketch with %s %#x: err = %v, want ErrSketchCorrupt", tc.name, tc.bits, err)
		}
	}
}

// stretchUvarint rewrites the minimal uvarint at p[off:] in a form one
// byte longer, which binary.Uvarint reads as the same value.
func stretchUvarint(p []byte, off int) []byte {
	_, n := binary.Uvarint(p[off:])
	out := append([]byte(nil), p[:off+n]...)
	out[off+n-1] |= 0x80
	out = append(out, 0)
	return append(out, p[off+n:]...)
}

// TestSketchBinaryRejectsNonMinimalCounts: a target or tuple count
// written non-minimally decodes to a sketch whose encoding differs from
// the input, so it is corrupt.
func TestSketchBinaryRejectsNonMinimalCounts(t *testing.T) {
	s := randomSketch(t, 5, 300)
	enc := s.AppendBinary(nil)
	targetsAt := 1
	tuplesAt := 1 + 1 + 16*len(s.Targets()) + 5*8
	for name, off := range map[string]int{"target count": targetsAt, "tuple count": tuplesAt} {
		if _, err := DecodeSketch(stretchUvarint(enc, off)); !errors.Is(err, ErrSketchCorrupt) {
			t.Errorf("non-minimal %s: err = %v, want ErrSketchCorrupt", name, err)
		}
	}
}

// TestSketchEncodedLen: EncodedLen predicts AppendBinary's length
// exactly, for the shapes the fleet ships (buffered observations
// included, which both flush).
func TestSketchEncodedLen(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	shapes := map[string]func() float64{
		"uniform":     func() float64 { return rng.Float64() * 100 },
		"exponential": func() float64 { return 10 + rng.ExpFloat64()*25 },
		"bimodal": func() float64 {
			if rng.Intn(4) == 0 {
				return 200 + rng.NormFloat64()*5
			}
			return 15 + rng.NormFloat64()*2
		},
	}
	for name, draw := range shapes {
		for _, n := range []int{0, 1, 100, 5000} {
			s := NewSketch()
			for i := 0; i < n; i++ {
				s.Observe(draw())
			}
			if got, want := s.EncodedLen(), len(s.AppendBinary(nil)); got != want {
				t.Errorf("%s n=%d: EncodedLen = %d, AppendBinary wrote %d", name, n, got, want)
			}
		}
	}
}

// sketchSeedCorpus covers DecodeSketch's shapes: valid encodings (empty,
// small, with custom targets), torn tails, a flipped width, a wrong
// version byte, trailing garbage, non-minimal counts, a tuple count
// that wraps a multiplying bound, an empty sketch with finite min/max,
// one with a sum, and garbage.
func sketchSeedCorpus(t testing.TB) [][]byte {
	full := NewSketch()
	for i := 0; i < 400; i++ {
		full.Observe(float64(i%53) + 1)
	}
	valid := full.AppendBinary(nil)
	empty := NewSketch().AppendBinary(nil)
	custom := NewSketch(SketchTarget{Quantile: 0.5, Epsilon: 0.05})
	custom.Observe(3)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-10] ^= 0x40
	badVersion := append([]byte(nil), valid...)
	badVersion[0]++
	wrapped := append(binary.AppendUvarint(append([]byte(nil), empty[:len(empty)-1]...), 768614336404564651), make([]byte, 8)...)
	// An empty sketch whose min and max are finite rather than the ±Inf
	// sentinels: decoding it and re-encoding would write the sentinels.
	finiteEmpty := append([]byte(nil), empty...)
	binary.LittleEndian.PutUint64(finiteEmpty[len(finiteEmpty)-17:], 0)
	binary.LittleEndian.PutUint64(finiteEmpty[len(finiteEmpty)-9:], 0)
	// An empty sketch carrying a sum (the first crasher FuzzSketchDecode
	// found): it round-trips, yet no observation backs the total.
	sumEmpty := append([]byte(nil), empty...)
	binary.LittleEndian.PutUint64(sumEmpty[len(sumEmpty)-25:], 0x3030303030303030)
	return [][]byte{
		valid,
		empty,
		custom.AppendBinary(nil),
		valid[:len(valid)-5],
		valid[:1],
		flipped,
		badVersion,
		append(append([]byte(nil), valid...), 0),
		stretchUvarint(valid, 1),
		stretchUvarint(empty, len(empty)-1),
		wrapped,
		finiteEmpty,
		sumEmpty,
		nil,
		[]byte("not a sketch"),
	}
}

// checkSketchDecode holds DecodeSketch's invariants: no panic, errors
// wrap ErrSketchCorrupt, and an accepted input re-encodes to itself.
func checkSketchDecode(t *testing.T, data []byte) {
	t.Helper()
	s, err := DecodeSketch(data)
	if err != nil {
		if !errors.Is(err, ErrSketchCorrupt) {
			t.Fatalf("error does not wrap ErrSketchCorrupt: %v", err)
		}
		return
	}
	if !bytes.Equal(s.AppendBinary(nil), data) {
		t.Fatal("accepted sketch is not canonical: re-encoding differs")
	}
}

func FuzzSketchDecode(f *testing.F) {
	for _, seed := range sketchSeedCorpus(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkSketchDecode(t, data) })
}

// TestSketchFuzzSeedCorpus replays the seed corpus under plain `go test`
// and pins the valid seeds to the accept path.
func TestSketchFuzzSeedCorpus(t *testing.T) {
	seeds := sketchSeedCorpus(t)
	for _, seed := range seeds {
		seed := seed
		t.Run("seed", func(t *testing.T) { checkSketchDecode(t, seed) })
	}
	for i := 0; i < 3; i++ {
		if _, err := DecodeSketch(seeds[i]); err != nil {
			t.Errorf("valid seed %d rejected: %v", i, err)
		}
	}
}
