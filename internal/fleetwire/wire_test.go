package fleetwire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/browsermetric/browsermetric/internal/frame"
	"github.com/browsermetric/browsermetric/internal/obs"
)

func sketchOf(vals ...float64) *obs.Sketch {
	s := obs.NewSketch()
	for _, v := range vals {
		s.Observe(v)
	}
	return s
}

func testFrame(t *testing.T, seed int64) *Frame {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	f := &Frame{Node: "collector-7", Epoch: 777000 + uint64(seed), Seq: uint64(seed + 1), Sessions: 4321}
	for _, k := range [][3]string{
		{"http-get", "chrome", "us"},
		{"http-get", "chrome", "eu"},
		{"websocket", "firefox", "ap"},
		{"udp", "opera", "sa"},
	} {
		s := obs.NewSketch()
		n := 50 + rng.Intn(2000)
		for i := 0; i < n; i++ {
			s.Observe(20 + rng.ExpFloat64()*30)
		}
		f.Keys = append(f.Keys, KeyDelta{
			Method: k[0], Browser: k[1], Region: k[2],
			Count: uint64(n) + 3, Lost: 3,
			JitterSum: rng.Float64() * 100, JitterN: uint64(n) - 1,
			Sketch: s,
		})
	}
	return f
}

func encode(t *testing.T, f *Frame) []byte {
	t.Helper()
	b, err := AppendFrame(nil, f)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return b
}

func TestFrameRoundTrip(t *testing.T) {
	f := testFrame(t, 1)
	enc := encode(t, f)
	got, n, err := DecodeFrame(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d", n, len(enc))
	}
	if got.Node != f.Node || got.Epoch != f.Epoch || got.Seq != f.Seq || got.Sessions != f.Sessions {
		t.Fatalf("header diverged: %+v", got)
	}
	if len(got.Keys) != len(f.Keys) {
		t.Fatalf("keys = %d, want %d", len(got.Keys), len(f.Keys))
	}
	// Decoded keys come out canonically sorted; compare against a sorted
	// copy of the input.
	want := append([]KeyDelta(nil), f.Keys...)
	sort.Slice(want, func(i, j int) bool { return keyLess(&want[i], &want[j]) })
	for i := range want {
		w, g := want[i], got.Keys[i]
		if g.Method != w.Method || g.Browser != w.Browser || g.Region != w.Region ||
			g.Count != w.Count || g.Lost != w.Lost || g.JitterSum != w.JitterSum || g.JitterN != w.JitterN {
			t.Fatalf("key %d diverged: got %+v want %+v", i, g, w)
		}
		if !bytes.Equal(g.Sketch.AppendBinary(nil), w.Sketch.AppendBinary(nil)) {
			t.Fatalf("key %d sketch state diverged", i)
		}
	}
}

func TestFramesConcatenateAndStreamDecode(t *testing.T) {
	a, b := testFrame(t, 1), testFrame(t, 2)
	buf := encode(t, a)
	buf = append(buf, encode(t, b)...)
	got1, n1, err := DecodeFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	got2, n2, err := DecodeFrame(buf[n1:])
	if err != nil {
		t.Fatal(err)
	}
	if n1+n2 != len(buf) {
		t.Fatalf("consumed %d+%d of %d", n1, n2, len(buf))
	}
	if got1.Seq != a.Seq || got2.Seq != b.Seq {
		t.Fatalf("seq order: %d then %d", got1.Seq, got2.Seq)
	}
}

func TestEncodeCanonical(t *testing.T) {
	f := testFrame(t, 3)
	first := encode(t, f)
	// Shuffle the key order: the canonical encoder must not care.
	shuffled := &Frame{Node: f.Node, Epoch: f.Epoch, Seq: f.Seq, Sessions: f.Sessions}
	shuffled.Keys = append([]KeyDelta(nil), f.Keys...)
	rand.New(rand.NewSource(9)).Shuffle(len(shuffled.Keys), func(i, j int) {
		shuffled.Keys[i], shuffled.Keys[j] = shuffled.Keys[j], shuffled.Keys[i]
	})
	if !bytes.Equal(encode(t, shuffled), first) {
		t.Fatal("encoding depends on input key order")
	}
	if !bytes.Equal(encode(t, f), first) {
		t.Fatal("encoding not deterministic")
	}
}

func TestEncodeRejects(t *testing.T) {
	if _, err := AppendFrame(nil, &Frame{Node: ""}); err == nil {
		t.Fatal("empty node accepted")
	}
	dup := &Frame{Node: "n", Keys: []KeyDelta{
		{Method: "m", Browser: "b", Region: "r", Sketch: sketchOf(1)},
		{Method: "m", Browser: "b", Region: "r", Sketch: sketchOf(2)},
	}}
	if _, err := AppendFrame(nil, dup); err == nil {
		t.Fatal("duplicate key accepted")
	}
}

func TestDecodeRejectsTornFrame(t *testing.T) {
	enc := encode(t, testFrame(t, 4))
	for cut := 0; cut < len(enc); cut++ {
		_, _, err := DecodeFrame(enc[:cut])
		if err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		// A prefix cut must look truncated (retryable with more bytes),
		// except where the cut lands inside the length-delimited region
		// after the header is complete — those are still ErrTruncated.
		if cut < len(enc) && !errors.Is(err, frame.ErrTruncated) {
			t.Fatalf("truncation at %d: err = %v, want ErrTruncated", cut, err)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	enc := encode(t, testFrame(t, 5))
	flips := 0
	for i := 0; i < len(enc); i++ {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x01
		f, _, err := DecodeFrame(bad)
		if err == nil {
			t.Fatalf("bit flip at %d accepted (frame %+v)", i, f)
		}
		flips++
	}
	if flips != len(enc) {
		t.Fatalf("covered %d of %d bytes", flips, len(enc))
	}
	// Every single-bit flip of the version field is corruption: the CRC
	// covers the header, so a flip can never pass as version skew.
	for bit := 0; bit < 16; bit++ {
		bad := append([]byte(nil), enc...)
		bad[4+bit/8] ^= 1 << (bit % 8)
		if _, n, err := DecodeFrame(bad); !errors.Is(err, frame.ErrCorrupt) || n != 0 {
			t.Fatalf("version bit %d flip: n=%d err=%v, want ErrCorrupt consuming 0", bit, n, err)
		}
	}
}

func TestDecodeRejectsBadMagicAndVersion(t *testing.T) {
	enc := encode(t, testFrame(t, 6))
	badMagic := append([]byte(nil), enc...)
	badMagic[0] = 'X'
	if _, _, err := DecodeFrame(badMagic); !errors.Is(err, frame.ErrCorrupt) {
		t.Fatalf("bad magic: err = %v", err)
	}
	// A version rewrite without resealing is corruption...
	badVer := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint16(badVer[4:], Version+1)
	if _, _, err := DecodeFrame(badVer); !errors.Is(err, frame.ErrCorrupt) {
		t.Fatalf("unsealed version rewrite: err = %v, want ErrCorrupt", err)
	}
	// ...while an intact frame of another version is skippable skew.
	badVer, err := codec.Seal(badVer[:len(badVer)-frame.TrailerLen], 0)
	if err != nil {
		t.Fatal(err)
	}
	_, n, err := DecodeFrame(badVer)
	if !errors.Is(err, frame.ErrVersion) {
		t.Fatalf("bad version: err = %v", err)
	}
	if n != len(enc) {
		t.Fatalf("version mismatch consumed %d, want %d (skippable)", n, len(enc))
	}
	// A sealed nonzero kind is corruption: fleetwire has one kind.
	badKind := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint16(badKind[6:], 1)
	if badKind, err = codec.Seal(badKind[:len(badKind)-frame.TrailerLen], 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeFrame(badKind); !errors.Is(err, frame.ErrCorrupt) {
		t.Fatalf("nonzero kind: err = %v, want ErrCorrupt", err)
	}
	// Oversized length prefix must be rejected before any allocation.
	huge := append([]byte(nil), enc[:frame.HeaderLen]...)
	binary.LittleEndian.PutUint32(huge[8:], MaxPayload+1)
	if _, _, err := DecodeFrame(huge); !errors.Is(err, frame.ErrCorrupt) {
		t.Fatalf("oversized length: err = %v", err)
	}
}

// TestDecodeRejectsLyingKeyCount: a frame whose payload claims far more
// keys than its remaining bytes could possibly hold must be rejected at
// the count check — before the ~88-byte-per-key slice pre-allocation —
// even when the frame is large enough that the count passes maxKeys and
// the CRC is valid.
func TestDecodeRejectsLyingKeyCount(t *testing.T) {
	var p []byte
	p = frame.AppendString(p, "n")
	p = binary.LittleEndian.AppendUint64(p, 1) // epoch
	p = binary.LittleEndian.AppendUint64(p, 1) // seq
	p = binary.LittleEndian.AppendUint64(p, 0) // sessions
	p = binary.AppendUvarint(p, maxKeys)       // claims 2^20 keys...
	p = append(p, make([]byte, 1<<20)...)      // ...in ~1 MiB of zeros
	raw := rawFrame(p)
	if _, _, err := DecodeFrame(raw); !errors.Is(err, frame.ErrCorrupt) {
		t.Fatalf("lying key count: err = %v, want ErrCorrupt", err)
	}
}

// rawFrame wraps an arbitrary payload in a valid header and CRC, for
// crafting frames the canonical encoder refuses to produce.
func rawFrame(payload []byte) []byte {
	b, start := codec.Begin(nil, 0)
	b, err := codec.Seal(append(b, payload...), start)
	if err != nil {
		panic(err)
	}
	return b
}

// TestWireMergeBitEquivalent is the tentpole property: shipping a delta
// sketch through encode→decode and merging it is bit-equivalent to
// merging the original in process.
func TestWireMergeBitEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		base := obs.NewSketch()
		delta := obs.NewSketch()
		for i := 0; i < 500+rng.Intn(3000); i++ {
			base.Observe(rng.Float64() * 100)
		}
		for i := 0; i < 100+rng.Intn(2000); i++ {
			delta.Observe(50 + rng.NormFloat64()*20)
		}
		f := &Frame{Node: "n1", Seq: 1, Keys: []KeyDelta{{
			Method: "m", Browser: "b", Region: "r", Count: delta.Count(), Sketch: delta,
		}}}
		enc := encode(t, f)
		dec, _, err := DecodeFrame(enc)
		if err != nil {
			t.Fatal(err)
		}
		inProcess := obs.MergeSketches(base, delta)
		shipped := obs.MergeSketches(base, dec.Keys[0].Sketch)
		if !bytes.Equal(inProcess.AppendBinary(nil), shipped.AppendBinary(nil)) {
			t.Fatalf("trial %d: shipped merge state diverged from in-process merge", trial)
		}
	}
}

// TestFourNodeFanInAnyOrder simulates 4 nodes' deltas shipped as frames
// and folded at a root in arbitrary arrival orders: every order must
// answer every quantile identically to the canonical single-process
// MergeSketches fold of the same deltas, and the answers must respect
// the configured rank-error bound against the exact quantiles.
func TestFourNodeFanInAnyOrder(t *testing.T) {
	const nodes = 4
	rng := rand.New(rand.NewSource(21))
	var frames [][]byte
	var deltas []*obs.Sketch
	var all []float64
	for n := 0; n < nodes; n++ {
		s := obs.NewSketch()
		for i := 0; i < 2000+rng.Intn(3000); i++ {
			v := 10 + rng.ExpFloat64()*40
			if n%2 == 1 {
				v = 100 + rng.NormFloat64()*10 // node-skewed distributions
			}
			s.Observe(v)
			all = append(all, v)
		}
		deltas = append(deltas, s)
		f := &Frame{Node: "node", Seq: uint64(n + 1), Keys: []KeyDelta{{
			Method: "m", Browser: "b", Region: "r", Count: s.Count(), Sketch: s,
		}}}
		frames = append(frames, encode(t, f))
	}
	reference := obs.MergeSketches(deltas...)

	sort.Float64s(all)
	exact := func(q float64) float64 { return all[int(q*float64(len(all)-1))] }
	rank := func(v float64) float64 { return float64(sort.SearchFloat64s(all, v)) / float64(len(all)) }

	for trial := 0; trial < 8; trial++ {
		order := rng.Perm(nodes)
		shipped := make([]*obs.Sketch, 0, nodes)
		for _, idx := range order {
			dec, _, err := DecodeFrame(frames[idx])
			if err != nil {
				t.Fatal(err)
			}
			shipped = append(shipped, dec.Keys[0].Sketch)
		}
		merged := obs.MergeSketches(shipped...)
		for _, tg := range obs.DefaultSketchTargets {
			want := reference.Quantile(tg.Quantile)
			got := merged.Quantile(tg.Quantile)
			if got != want {
				t.Fatalf("trial %d order %v: q%g = %g, canonical fold %g",
					trial, order, tg.Quantile, got, want)
			}
			if math.Abs(rank(got)-tg.Quantile) > tg.Epsilon+1.0/float64(len(all)) {
				t.Fatalf("q%g answer %g violates rank bound (exact %g)",
					tg.Quantile, got, exact(tg.Quantile))
			}
		}
	}
}

// stretch rewrites the minimal uvarint at p[off:] in a form one byte
// longer: the last group gains a continuation bit and a 0x00 group
// follows. binary.Uvarint reads the same value from both forms.
func stretch(p []byte, off int) []byte {
	_, n := binary.Uvarint(p[off:])
	out := append([]byte(nil), p[:off+n]...)
	out[off+n-1] |= 0x80
	out = append(out, 0)
	return append(out, p[off+n:]...)
}

// TestDecodeRejectsNonMinimalLengths: a sealed frame whose node-name,
// key-label or sketch-blob length is written non-minimally would decode
// to a frame that re-encodes to other bytes, so it is corrupt.
func TestDecodeRejectsNonMinimalLengths(t *testing.T) {
	enc := encode(t, &Frame{Node: "n", Epoch: 1, Seq: 2, Sessions: 3, Keys: []KeyDelta{
		{Method: "m", Browser: "b", Region: "r", Count: 4, Sketch: sketchOf(1, 2, 3, 4)},
	}})
	payload := enc[frame.HeaderLen : len(enc)-frame.TrailerLen]
	// Node length at 0; then "n", three u64s and the key count (1 + 1 +
	// 24 + 1 bytes), the method length at 27; then the three one-byte
	// labels with their lengths and four u64s put the blob length at 65.
	if _, _, err := DecodeFrame(rawFrame(payload)); err != nil {
		t.Fatalf("resealed canonical payload: %v", err)
	}
	for _, f := range []struct {
		name string
		off  int
	}{{"node name", 0}, {"method label", 27}, {"region label", 31}, {"sketch blob", 65}} {
		bad := rawFrame(stretch(payload, f.off))
		if _, n, err := DecodeFrame(bad); !errors.Is(err, frame.ErrCorrupt) || n != 0 {
			t.Errorf("non-minimal %s length: n=%d err=%v, want ErrCorrupt", f.name, n, err)
		}
	}
}

// TestDecodeSkipsVersion2Frame: a root speaking this version counts an
// intact version-2 frame as version skew and steps over all of it.
func TestDecodeSkipsVersion2Frame(t *testing.T) {
	enc := encode(t, testFrame(t, 8))
	v2 := append([]byte(nil), enc[:len(enc)-frame.TrailerLen]...)
	binary.LittleEndian.PutUint16(v2[4:], 2)
	v2, err := codec.Seal(v2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, n, err := DecodeFrame(v2); !errors.Is(err, frame.ErrVersion) || n != len(v2) {
		t.Fatalf("version-2 frame: n=%d err=%v, want ErrVersion consuming %d", n, err, len(v2))
	}
}
