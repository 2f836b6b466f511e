package shard

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/frame"
)

// sampleMsgs covers every message type with every per-type field set to
// a non-zero value, so round-trip failures cannot hide in defaults.
func sampleMsgs() []*Msg {
	id := strings.Repeat("ab", 32)
	return []*Msg{
		{Type: MsgHello, Name: "worker-1", SweepID: id},
		{Type: MsgHelloAck, OK: true, Shards: 16},
		{Type: MsgHelloAck, OK: false, Reason: "sweep configuration mismatch", Shards: 0},
		{Type: MsgLeaseReq},
		{Type: MsgLeaseGrant, Shard: 3, Shards: 16, TTL: 5 * time.Second},
		{Type: MsgNoWork, Retry: 2500 * time.Millisecond},
		{Type: MsgAllDone},
		{Type: MsgRenew, Shard: 7, Done: 42},
		{Type: MsgRenewAck, OK: true},
		{Type: MsgRenewAck, OK: false},
		{Type: MsgShardDone, Shard: 15, Computed: 9, Cached: 4},
		{Type: MsgDoneAck, OK: true},
	}
}

func TestWireRoundTrip(t *testing.T) {
	for _, want := range sampleMsgs() {
		b, err := AppendMsg(nil, want)
		if err != nil {
			t.Fatalf("%v: encode: %v", want.Type, err)
		}
		got, n, err := DecodeMsg(b)
		if err != nil {
			t.Fatalf("%v: decode: %v", want.Type, err)
		}
		if n != len(b) {
			t.Errorf("%v: consumed %d of %d bytes", want.Type, n, len(b))
		}
		if *got != *want {
			t.Errorf("%v: round trip:\n got %+v\nwant %+v", want.Type, got, want)
		}
	}
}

// TestWireRoundTripConcatenated decodes a stream of back-to-back frames,
// verifying the consumed-byte accounting that a stream reader relies on.
func TestWireRoundTripConcatenated(t *testing.T) {
	msgs := sampleMsgs()
	var b []byte
	var err error
	for _, m := range msgs {
		if b, err = AppendMsg(b, m); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; len(b) > 0; i++ {
		got, n, err := DecodeMsg(b)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if *got != *msgs[i] {
			t.Errorf("frame %d: got %+v want %+v", i, got, msgs[i])
		}
		b = b[n:]
	}
}

// TestWireTruncation feeds every strict prefix of every encoded message:
// each must fail cleanly (never panic, never decode) and report
// ErrTruncated whenever the header survived intact.
func TestWireTruncation(t *testing.T) {
	for _, m := range sampleMsgs() {
		b, err := AppendMsg(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(b); n++ {
			_, _, err := DecodeMsg(b[:n])
			if err == nil {
				t.Fatalf("%v: decoded from %d of %d bytes", m.Type, n, len(b))
			}
			if !errors.Is(err, frame.ErrTruncated) {
				t.Fatalf("%v: prefix %d/%d: got %v, want ErrTruncated", m.Type, n, len(b), err)
			}
		}
	}
}

// TestWireBitFlips flips every bit of every encoded message; each flip
// must fail to decode — a flip may never pass CRC and still misreport
// fields — and a flip in the version field must be corruption, never
// version skew.
func TestWireBitFlips(t *testing.T) {
	for _, m := range sampleMsgs() {
		b, err := AppendMsg(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(b)*8; i++ {
			mut := make([]byte, len(b))
			copy(mut, b)
			mut[i/8] ^= 1 << (i % 8)
			got, n, err := DecodeMsg(mut)
			if i/8 == 4 || i/8 == 5 {
				if !errors.Is(err, frame.ErrCorrupt) || n != 0 {
					t.Fatalf("%v: version bit %d flip: n=%d err=%v, want ErrCorrupt consuming 0", m.Type, i, n, err)
				}
			}
			if err != nil {
				continue // rejection is the expected outcome
			}
			// A surviving decode means the flip produced a
			// self-consistent frame, which a single-bit flip cannot:
			// payload flips break the CRC, header flips break the magic,
			// version, type, or length, and CRC flips break themselves.
			t.Fatalf("%v: bit %d flip decoded to %+v", m.Type, i, got)
		}
	}
}

// TestWireVersionSkew rewrites the version field. Without resealing,
// the CRC (which covers the header) fails: ErrCorrupt, nothing consumed.
// Resealed, the frame is intact skew: ErrVersion with the full frame
// length reported so a stream can skip it.
func TestWireVersionSkew(t *testing.T) {
	b, err := AppendMsg(nil, &Msg{Type: MsgLeaseReq})
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(b[4:], Version+1)
	if _, n, err := DecodeMsg(b); !errors.Is(err, frame.ErrCorrupt) || n != 0 {
		t.Fatalf("unsealed rewrite: n=%d err=%v, want ErrCorrupt consuming 0", n, err)
	}
	if b, err = codec.Seal(b[:len(b)-frame.TrailerLen], 0); err != nil {
		t.Fatal(err)
	}
	_, n, err := DecodeMsg(b)
	if !errors.Is(err, frame.ErrVersion) {
		t.Fatalf("got %v, want ErrVersion", err)
	}
	if n != len(b) {
		t.Fatalf("version skew consumed %d of %d bytes", n, len(b))
	}
}

func TestWireRejectsOversizedPayloadLength(t *testing.T) {
	b, err := AppendMsg(nil, &Msg{Type: MsgLeaseReq})
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(b[8:], uint32(codec.MaxPayload)+1)
	if _, _, err := DecodeMsg(b); !errors.Is(err, frame.ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestWireEncodeValidation(t *testing.T) {
	id := strings.Repeat("ab", 32)
	bad := []*Msg{
		{Type: MsgHello, Name: "", SweepID: id},                       // empty name
		{Type: MsgHello, Name: strings.Repeat("x", 65), SweepID: id},  // long name
		{Type: MsgHello, Name: "w", SweepID: "abc"},                   // short sweep ID
		{Type: MsgHelloAck, Reason: strings.Repeat("r", maxReason+1)}, // long reason
		{Type: MsgType(99)}, // unknown type
	}
	for _, m := range bad {
		if _, err := AppendMsg(nil, m); err == nil {
			t.Errorf("%+v: encode accepted invalid message", m)
		}
	}
}

// TestWireDecodeRejectsInvalidGrants checks the semantic bounds baked
// into decode: a grant's shard must index its partition and the TTL is
// capped, so a corrupt-but-CRC-valid peer cannot push a worker out of
// range.
func TestWireDecodeRejectsInvalidGrants(t *testing.T) {
	grant := func(shard, shards uint32, ttl time.Duration) []byte {
		var payload []byte
		payload = binary.LittleEndian.AppendUint32(payload, shard)
		payload = binary.LittleEndian.AppendUint32(payload, shards)
		payload = binary.LittleEndian.AppendUint64(payload, uint64(ttl))
		return rawFrame(MsgLeaseGrant, payload)
	}
	cases := [][]byte{
		grant(5, 5, time.Second),         // shard == shards
		grant(0, 0, time.Second),         // zero shards
		grant(0, 1, 2*time.Hour),         // TTL over cap
		rawFrame(MsgLeaseGrant, nil),     // empty payload
		rawFrame(MsgLeaseReq, []byte{0}), // trailing bytes
		rawFrame(MsgRenewAck, []byte{2}), // non-canonical bool
	}
	for i, b := range cases {
		if _, _, err := DecodeMsg(b); !errors.Is(err, frame.ErrCorrupt) {
			t.Errorf("case %d: got %v, want ErrCorrupt", i, err)
		}
	}
}

// rawFrame assembles a frame around an arbitrary payload, bypassing
// AppendMsg's validation — for testing decode's own checks.
func rawFrame(typ MsgType, payload []byte) []byte {
	b, start := codec.Begin(nil, uint16(typ))
	b, err := codec.Seal(append(b, payload...), start)
	if err != nil {
		panic(err)
	}
	return b
}
