package sweep

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/core"
	"github.com/browsermetric/browsermetric/internal/frame"
)

// Fuzz target for the on-disk format the sweep engine trusts its
// resumability to: the cell file. The corpus is checked in as code (the
// repo's netsim/httpsim convention) so `go test` replays it on every CI
// run even without -fuzz.

// sealCell frames payload as a cell file of the given version and kind,
// with a valid checksum, so a seed reaches the payload checks.
func sealCell(tb testing.TB, version, kind uint16, payload []byte) []byte {
	tb.Helper()
	c := cellCodec
	c.Version = version
	b, start := c.Begin(nil, kind)
	b, err := c.Seal(append(b, payload...), start)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// cellSeedCorpus covers the decoder's interesting shapes: valid, empty,
// torn-tail, flipped-bit, lying count, trailing bytes, non-minimal
// uvarint, another version or kind, out-of-range fields, the text format
// of the first salt, and plain garbage. Seeds 0 and 1 are valid.
func cellSeedCorpus(tb testing.TB) [][]byte {
	samples := []core.Sample{
		{Run: 0, Round: 1, BrowserRTT: 3 * time.Millisecond, WireRTT: time.Millisecond, Overhead: 2 * time.Millisecond},
		{Run: 0, Round: 2, BrowserRTT: 2 * time.Millisecond, WireRTT: time.Millisecond, Overhead: time.Millisecond, Handshake: true},
	}
	key := fmt.Sprintf("%064x", 2)
	valid, err := encodeCell(key, samples)
	if err != nil {
		tb.Fatal(err)
	}
	empty, err := encodeCell(key, nil)
	if err != nil {
		tb.Fatal(err)
	}
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x01

	// Payload edits, each resealed so only the payload grammar rejects.
	payload := valid[frame.HeaderLen : len(valid)-frame.TrailerLen]
	edit := func(fn func(p []byte) []byte) []byte {
		return sealCell(tb, 1, 0, fn(append([]byte(nil), payload...)))
	}
	countAt := 1 + cellKeyLen // after the key's length byte and bytes
	sampleAt := countAt + 1
	badCount := edit(func(p []byte) []byte { p[countAt] = 3; return p })
	stretched := edit(func(p []byte) []byte {
		// Spell the run number 0 as the two-byte uvarint 0x80 0x00.
		return append(append(p[:sampleAt:sampleAt], 0x80, 0x00), p[sampleAt+1:]...)
	})
	roundZero := edit(func(p []byte) []byte { p[sampleAt+1] = 0; return p })
	badBool := edit(func(p []byte) []byte { p[len(p)-1] = 2; return p })
	negRun := edit(func(p []byte) []byte {
		run := binary.AppendUvarint(nil, 1<<63)
		return append(append(p[:sampleAt:sampleAt], run...), p[sampleAt+1:]...)
	})

	return [][]byte{
		valid,
		empty,
		valid[:len(valid)-3],
		flipped,
		badCount,
		append(append([]byte(nil), valid...), 0),
		stretched,
		sealCell(tb, 2, 0, payload),
		sealCell(tb, 1, 1, payload),
		roundZero,
		badBool,
		negRun,
		nil,
		[]byte("bmcell v1\nkey 00\nn 0\nsum 00\n"),
		bytes.Repeat([]byte("s 1 1 1 1 0\n"), 32),
	}
}

// checkCellDecode holds decodeCell's fuzz invariants: no panics, every
// rejection wraps one of the frame sentinels, and accepted bytes hold
// in-range, consistent samples and re-encode to identical bytes.
func checkCellDecode(t *testing.T, data []byte) {
	t.Helper()
	key, samples, err := decodeCell(data)
	if err != nil {
		if !errors.Is(err, frame.ErrCorrupt) && !errors.Is(err, frame.ErrTruncated) && !errors.Is(err, frame.ErrVersion) {
			t.Fatalf("rejection wraps no frame sentinel: %v", err)
		}
		return
	}
	for _, s := range samples {
		if s.Overhead != s.BrowserRTT-s.WireRTT {
			t.Fatalf("accepted inconsistent sample: %+v", s)
		}
		if s.Run < 0 || s.Round < 1 {
			t.Fatalf("accepted out-of-range sample: %+v", s)
		}
	}
	again, err := encodeCell(key, samples)
	if err != nil || !bytes.Equal(again, data) {
		t.Fatalf("accepted cell file does not re-encode to itself (err=%v)", err)
	}
}

func FuzzCellDecode(f *testing.F) {
	for _, seed := range cellSeedCorpus(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkCellDecode(t, data) })
}

// TestSweepFuzzSeedCorpus replays the seed corpus as a plain test so the
// invariants run under `go test` (and CI) without -fuzz.
func TestSweepFuzzSeedCorpus(t *testing.T) {
	for _, seed := range cellSeedCorpus(t) {
		seed := seed
		t.Run("cell", func(t *testing.T) { checkCellDecode(t, seed) })
	}
}

// TestCellSeedCorpusValidSeedDecodes sanity-checks that the valid seeds
// really exercise the accept path and every other seed the reject path
// (a corpus of rejects, or of accepts, would prove nothing).
func TestCellSeedCorpusValidSeedDecodes(t *testing.T) {
	for i, seed := range cellSeedCorpus(t) {
		_, _, err := decodeCell(seed)
		if valid := i < 2; valid != (err == nil) {
			t.Errorf("seed %d: valid=%v, decode err=%v", i, valid, err)
		}
	}
}
