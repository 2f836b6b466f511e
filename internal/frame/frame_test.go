package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

var testCodec = Codec{Magic: [4]byte{'t', 'e', 's', 't'}, Version: 3, MaxPayload: 1 << 10}

// seal frames payload under c with the given kind.
func seal(t testing.TB, c *Codec, kind uint16, payload []byte) []byte {
	t.Helper()
	b, start := c.Begin(nil, kind)
	b, err := c.Seal(append(b, payload...), start)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRoundTripAndConcatenation(t *testing.T) {
	var stream []byte
	payloads := [][]byte{nil, []byte("x"), bytes.Repeat([]byte{0xab}, testCodec.MaxPayload)}
	for i, p := range payloads {
		b, start := testCodec.Begin(stream, uint16(i))
		var err error
		if stream, err = testCodec.Seal(append(b, p...), start); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range payloads {
		kind, got, n, err := testCodec.Decode(stream)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if int(kind) != i || !bytes.Equal(got, p) || n != HeaderLen+len(p)+TrailerLen {
			t.Fatalf("frame %d: kind %d, %d payload bytes, consumed %d", i, kind, len(got), n)
		}
		stream = stream[n:]
	}
}

func TestSealRejectsOversizedPayload(t *testing.T) {
	b, start := testCodec.Begin(nil, 0)
	if _, err := testCodec.Seal(append(b, make([]byte, testCodec.MaxPayload+1)...), start); err == nil {
		t.Fatal("oversized payload sealed")
	}
}

// TestEveryPrefixIsTruncated cuts a frame at every length short of
// whole: each prefix must be ErrTruncated with nothing consumed.
func TestEveryPrefixIsTruncated(t *testing.T) {
	b := seal(t, &testCodec, 7, []byte("prefix-cut payload"))
	for cut := 0; cut < len(b); cut++ {
		if _, _, n, err := testCodec.Decode(b[:cut]); !errors.Is(err, ErrTruncated) || n != 0 {
			t.Fatalf("cut %d/%d: n=%d err=%v, want ErrTruncated", cut, len(b), n, err)
		}
	}
}

// TestEveryBitFlipIsRejected flips every bit of a frame. Each flip must
// be rejected, and none may pass as version skew: the CRC covers the
// version, so the only way to ErrVersion is an intact frame. A flip in
// the length field may read as truncation (the frame now claims more
// bytes than it has); every other flip is ErrCorrupt.
func TestEveryBitFlipIsRejected(t *testing.T) {
	b := seal(t, &testCodec, 2, []byte("bit-flip payload"))
	for i := 0; i < len(b)*8; i++ {
		mut := append([]byte(nil), b...)
		mut[i/8] ^= 1 << (i % 8)
		_, _, n, err := testCodec.Decode(mut)
		inLength := i/8 >= 8 && i/8 < HeaderLen
		switch {
		case err == nil:
			t.Fatalf("bit %d flip decoded", i)
		case errors.Is(err, ErrVersion):
			t.Fatalf("bit %d flip reported as version skew", i)
		case errors.Is(err, ErrTruncated) && !inLength:
			t.Fatalf("bit %d flip reported as truncation", i)
		case n != 0:
			t.Fatalf("bit %d flip consumed %d bytes", i, n)
		}
	}
}

// TestVersionSkewIsSkippable: an intact frame of another version is
// ErrVersion and reports its full length, so a stream can step over it.
func TestVersionSkewIsSkippable(t *testing.T) {
	next := testCodec
	next.Version++
	old := seal(t, &next, 1, []byte("from the future"))
	good := seal(t, &testCodec, 1, []byte("current"))
	stream := append(append([]byte(nil), old...), good...)
	_, _, n, err := testCodec.Decode(stream)
	if !errors.Is(err, ErrVersion) || n != len(old) {
		t.Fatalf("n=%d err=%v, want ErrVersion consuming %d", n, err, len(old))
	}
	if _, p, _, err := testCodec.Decode(stream[n:]); err != nil || string(p) != "current" {
		t.Fatalf("frame after the skipped one: %q, %v", p, err)
	}
}

func TestLenChecksMagicAndCap(t *testing.T) {
	b := seal(t, &testCodec, 0, []byte("abc"))
	if n, err := testCodec.Len(b[:HeaderLen]); err != nil || n != len(b) {
		t.Fatalf("Len = %d, %v; want %d", n, err, len(b))
	}
	bad := append([]byte(nil), b...)
	bad[0] = 'X'
	if _, err := testCodec.Len(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: %v", err)
	}
	huge := append([]byte(nil), b[:HeaderLen]...)
	binary.LittleEndian.PutUint32(huge[8:], 0xffffffff)
	if _, err := testCodec.Len(huge); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized length: %v", err)
	}
}

// frameSeedCorpus covers the decoder's shapes: valid frames (empty and
// full payloads), a back-to-back pair, an intact future-version frame,
// a version rewritten without resealing, torn tails, flipped CRC and
// payload bytes, a lying length prefix, and garbage. Checked in as code
// so `go test` replays it without -fuzz.
func frameSeedCorpus(t testing.TB) [][]byte {
	valid := seal(t, &testCodec, 5, []byte("seed payload"))
	empty := seal(t, &testCodec, 0, nil)
	next := testCodec
	next.Version++
	future := seal(t, &next, 5, []byte("seed payload"))
	unsealed := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint16(unsealed[4:], next.Version)
	badCRC := append([]byte(nil), valid...)
	badCRC[len(badCRC)-1] ^= 0x80
	badPayload := append([]byte(nil), valid...)
	badPayload[HeaderLen] ^= 0x01
	lyingLen := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(lyingLen[8:], uint32(testCodec.MaxPayload))
	return [][]byte{
		valid,
		empty,
		append(append([]byte(nil), valid...), empty...),
		future,
		unsealed,
		valid[:len(valid)-1],
		valid[:HeaderLen],
		badCRC,
		badPayload,
		lyingLen,
		nil,
		testCodec.Magic[:],
		bytes.Repeat([]byte{0xff}, HeaderLen+TrailerLen),
	}
}

// checkFrameDecode holds Decode's invariants: no panic; errors are one
// of the sentinels; only ErrVersion and success consume bytes, and then
// exactly one whole frame whose length field agrees; an accepted frame
// re-seals to the exact input bytes.
func checkFrameDecode(t *testing.T, data []byte) {
	t.Helper()
	kind, payload, n, err := testCodec.Decode(data)
	switch {
	case err == nil:
	case errors.Is(err, ErrVersion):
		if n < HeaderLen+TrailerLen || n > len(data) || n != HeaderLen+int(binary.LittleEndian.Uint32(data[8:]))+TrailerLen {
			t.Fatalf("version skew consumed %d of %d", n, len(data))
		}
		return
	case errors.Is(err, ErrTruncated), errors.Is(err, ErrCorrupt):
		if n != 0 {
			t.Fatalf("%v consumed %d", err, n)
		}
		return
	default:
		t.Fatalf("non-sentinel error: %v", err)
	}
	if n != HeaderLen+len(payload)+TrailerLen || n > len(data) {
		t.Fatalf("accepted frame consumed %d of %d with %d payload bytes", n, len(data), len(payload))
	}
	if again := seal(t, &testCodec, kind, payload); !bytes.Equal(again, data[:n]) {
		t.Fatal("accepted frame does not re-seal to its input")
	}
}

func FuzzFrameDecode(f *testing.F) {
	for _, seed := range frameSeedCorpus(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkFrameDecode(t, data) })
}

// TestFrameSeedCorpus replays the seed corpus under plain `go test` and
// pins the seeds that must land on each side of the skew/corruption line.
func TestFrameSeedCorpus(t *testing.T) {
	seeds := frameSeedCorpus(t)
	for _, seed := range seeds {
		seed := seed
		t.Run("seed", func(t *testing.T) { checkFrameDecode(t, seed) })
	}
	if _, _, _, err := testCodec.Decode(seeds[0]); err != nil {
		t.Fatalf("valid seed rejected: %v", err)
	}
	if _, _, _, err := testCodec.Decode(seeds[3]); !errors.Is(err, ErrVersion) {
		t.Fatalf("future-version seed: %v, want ErrVersion", err)
	}
	if _, _, _, err := testCodec.Decode(seeds[4]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unsealed version rewrite: %v, want ErrCorrupt", err)
	}
}
