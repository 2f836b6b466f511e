package fleetwire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"github.com/browsermetric/browsermetric/internal/frame"
	"github.com/browsermetric/browsermetric/internal/obs"
)

// Fuzz target for the frame decoder — the one parser in the repo that
// eats bytes straight off the network from other nodes. The corpus is
// checked in as code (the repo's sweep/netsim convention) so `go test`
// replays it on every CI run even without -fuzz.

// wireSeedCorpus covers the decoder's interesting shapes: a valid
// frame, an empty frame, torn tails, a flipped payload byte, an intact
// future-version frame, a version field rewritten without resealing
// (corruption, not skew), a lying length prefix, CRC-valid frames with hostile
// payloads (an overflowing sketch tuple count, a lying key count), and
// plain garbage.
func wireSeedCorpus(t testing.TB) [][]byte {
	s := obs.NewSketch()
	for i := 0; i < 300; i++ {
		s.Observe(float64(i%37) + 5)
	}
	valid, err := AppendFrame(nil, &Frame{
		Node: "seed-node", Seq: 9, Sessions: 42,
		Keys: []KeyDelta{
			{Method: "http-get", Browser: "chrome", Region: "us",
				Count: 305, Lost: 5, JitterSum: 12.5, JitterN: 299, Sketch: s},
			{Method: "websocket", Browser: "firefox", Region: "eu",
				Count: 0, Sketch: obs.NewSketch()},
		},
	})
	if err != nil {
		t.Fatalf("seed encode: %v", err)
	}
	empty, err := AppendFrame(nil, &Frame{Node: "n", Seq: 1})
	if err != nil {
		t.Fatalf("seed encode: %v", err)
	}
	torn := append([]byte(nil), valid[:len(valid)-7]...)
	flipped := append([]byte(nil), valid...)
	flipped[frame.HeaderLen+3] ^= 0x10
	unsealedVer := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint16(unsealedVer[4:], Version+3)
	futureVer, err := codec.Seal(append([]byte(nil), unsealedVer[:len(unsealedVer)-frame.TrailerLen]...), 0)
	if err != nil {
		t.Fatalf("seed reseal: %v", err)
	}
	lyingLen := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(lyingLen[8:], uint32(len(valid)))
	double := append(append([]byte(nil), valid...), empty...)

	// CRC-valid frame whose sketch blob claims a tuple count chosen so
	// count*24 wraps uint64 (768614336404564651*24 == 2^64+8): the CRC
	// passes, so the decoder must reject the count arithmetic itself
	// rather than panic allocating the tuple slice.
	blob := obs.NewSketch().AppendBinary(nil)
	blob = binary.AppendUvarint(blob[:len(blob)-1], 768614336404564651)
	blob = append(blob, make([]byte, 8)...)
	var p []byte
	p = frame.AppendString(p, "n")
	p = binary.LittleEndian.AppendUint64(p, 1) // epoch
	p = binary.LittleEndian.AppendUint64(p, 1) // seq
	p = binary.LittleEndian.AppendUint64(p, 0) // sessions
	p = binary.AppendUvarint(p, 1)
	p = frame.AppendString(p, "m")
	p = frame.AppendString(p, "b")
	p = frame.AppendString(p, "r")
	p = append(p, make([]byte, 32)...) // count, lost, jitterSum, jitterN
	p = binary.AppendUvarint(p, uint64(len(blob)))
	overflowTuples := rawFrame(append(p, blob...))

	// CRC-valid frame claiming far more keys than its bytes can hold:
	// the count must be rejected before the per-key pre-allocation.
	var q []byte
	q = frame.AppendString(q, "n")
	q = append(q, make([]byte, 24)...) // epoch, seq, sessions
	q = binary.AppendUvarint(q, 4096)
	lyingKeys := rawFrame(append(q, make([]byte, 4200)...))

	return [][]byte{
		valid,
		empty,
		double,
		torn,
		flipped,
		futureVer,
		lyingLen,
		overflowTuples,
		lyingKeys,
		nil,
		codec.Magic[:],
		[]byte("not a frame"),
		bytes.Repeat([]byte{0xff}, frame.HeaderLen+frame.TrailerLen),
		unsealedVer,
	}
}

// checkWireDecode holds DecodeFrame's fuzz invariants: it never panics,
// errors are one of the three sentinels, consumed stays in range, and
// any accepted frame re-encodes canonically to the exact input bytes.
func checkWireDecode(t *testing.T, data []byte) {
	t.Helper()
	f, n, err := DecodeFrame(data)
	if err != nil {
		if !errors.Is(err, frame.ErrTruncated) && !errors.Is(err, frame.ErrCorrupt) && !errors.Is(err, frame.ErrVersion) {
			t.Fatalf("non-sentinel error: %v", err)
		}
		if n < 0 || n > len(data) {
			t.Fatalf("consumed %d of %d on error", n, len(data))
		}
		return
	}
	if n <= 0 || n > len(data) {
		t.Fatalf("accepted frame consumed %d of %d", n, len(data))
	}
	again, err := AppendFrame(nil, f)
	if err != nil {
		t.Fatalf("accepted frame does not re-encode: %v", err)
	}
	if !bytes.Equal(again, data[:n]) {
		t.Fatal("accepted frame is not canonical: re-encoding differs")
	}
}

// FuzzWireDecode fuzzes a frame's kind and payload and seals them into a
// fleetwire frame, so every input passes the CRC and reaches the payload
// grammar; FuzzFrameDecode covers the header and checksum path. A seed
// that opens with an intact frame seeds its kind and payload; any other
// seeds kind 0 with the whole seed as payload.
func FuzzWireDecode(f *testing.F) {
	for _, seed := range wireSeedCorpus(f) {
		kind, payload, _, err := codec.Decode(seed)
		if err != nil {
			kind, payload = 0, seed
		}
		f.Add(kind, payload)
	}
	f.Fuzz(func(t *testing.T, kind uint16, payload []byte) {
		b, start := codec.Begin(nil, kind)
		b, err := codec.Seal(append(b, payload...), start)
		if err != nil {
			t.Fatal(err)
		}
		checkWireDecode(t, b)
	})
}

// TestWireFuzzSeedCorpus replays the seed corpus as a plain test so the
// invariants run under `go test` (and CI) without -fuzz.
func TestWireFuzzSeedCorpus(t *testing.T) {
	for _, seed := range wireSeedCorpus(t) {
		seed := seed
		t.Run("seed", func(t *testing.T) { checkWireDecode(t, seed) })
	}
}

// TestWireSeedCorpusValidSeedDecodes sanity-checks that the valid seeds
// exercise the accept path, and that the two version seeds land on the
// intended sides of the skew/corruption line.
func TestWireSeedCorpusValidSeedDecodes(t *testing.T) {
	seeds := wireSeedCorpus(t)
	if _, _, err := DecodeFrame(seeds[0]); err != nil {
		t.Fatalf("canonical seed rejected: %v", err)
	}
	if _, _, err := DecodeFrame(seeds[1]); err != nil {
		t.Fatalf("empty-frame seed rejected: %v", err)
	}
	if _, n, err := DecodeFrame(seeds[5]); !errors.Is(err, frame.ErrVersion) || n != len(seeds[5]) {
		t.Fatalf("resealed future-version seed: n=%d err=%v, want skippable ErrVersion", n, err)
	}
	if _, _, err := DecodeFrame(seeds[len(seeds)-1]); !errors.Is(err, frame.ErrCorrupt) {
		t.Fatalf("unsealed version rewrite: err=%v, want ErrCorrupt", err)
	}
}
