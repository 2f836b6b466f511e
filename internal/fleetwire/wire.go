// Package fleetwire is the multi-node wire format of the fleet plane:
// the versioned, length-prefixed binary frames collectors ship their
// per-tick delta sketches upstream in. One frame carries one collector
// fan-in tick — the node's name, a per-node monotone sequence number,
// and the (method, browser, region)-keyed CKMS delta sketches with
// their count/loss/jitter side-state.
//
// Design rules:
//
//   - the encoding is canonical: keys are sorted, floats travel as raw
//     IEEE 754 bits, and equal tick deltas encode to identical bytes —
//     so encode→decode→Merge is bit-equivalent to an in-process Merge
//     and cross-node fan-in correctness reduces to this codec plus the
//     already-property-tested order-invariant COMBINE machinery;
//   - every frame travels in the shared internal/frame codec: length-
//     prefixed and CRC-32C checksummed over header and payload, so a
//     torn TCP stream, a truncated POST body or a bit flip anywhere is a
//     corrupt frame rejected at the frame boundary rather than skewing
//     cluster aggregates;
//   - only an intact frame of another version is version skew, so a
//     rolling upgrade's mixed-version fleet degrades to counted frame
//     rejections, never to misparsed tuples.
//
// Frame (see internal/frame): magic "bmwf", version Version, kind 0.
// Version 2 moved the CRC from the payload alone to header and payload.
// Version 3 reads every payload field, sketch blobs included, through
// the strict frame.Reader, so a non-minimal varint is corruption; a
// version-2 frame is counted as version skew.
//
// Payload (the frame package's payload grammar):
//
//	uvarint+bytes  node name
//	u64            epoch (collector boot id; sequence numbers are
//	               monotone within one epoch and restart with it)
//	u64            frame sequence number (per node+epoch, monotone)
//	u64            live sessions at the node
//	uvarint        key count
//	per key (strictly ascending by method, browser, region):
//	    uvarint+bytes ×3  method, browser, region
//	    u64 ×2            count, lost
//	    f64               jitterSum
//	    u64               jitterN
//	    uvarint+bytes     sketch (obs binary sketch encoding)
package fleetwire

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"github.com/browsermetric/browsermetric/internal/frame"
	"github.com/browsermetric/browsermetric/internal/obs"
)

// Version is the wire format version this package encodes and accepts.
const Version = 3

const (
	// MaxPayload bounds a single frame (64 MiB). Real frames are a few
	// KiB per key; the cap keeps a corrupt length prefix from turning
	// into an allocation bomb.
	MaxPayload = 64 << 20

	// maxLabel bounds one method/browser/region/node string.
	maxLabel = 4096
	// maxKeys bounds the key count in one frame.
	maxKeys = 1 << 20
	// minKeyEnc is the fewest payload bytes one encoded key can occupy:
	// three empty-label length bytes, four fixed u64s, and a one-byte
	// sketch-blob length prefix.
	minKeyEnc = 3 + 4*8 + 1
)

var codec = frame.Codec{Magic: [4]byte{'b', 'm', 'w', 'f'}, Version: Version, MaxPayload: MaxPayload}

// KeyDelta is one (method, browser, region) series' delta for a tick:
// the sample/loss counters, the jitter accumulator and the CKMS delta
// sketch of the delays.
type KeyDelta struct {
	Method, Browser, Region string
	Count, Lost             uint64
	JitterSum               float64
	JitterN                 uint64
	Sketch                  *obs.Sketch
}

// Frame is one collector tick on the wire. Epoch is the collector's
// boot id (any value that changes across process restarts, e.g. the
// start time in nanoseconds): Seq is monotone only within one epoch,
// so a root can tell a restarted collector (new epoch, seq back at 1)
// from a duplicated frame (same epoch, seq at or below the high-water
// mark).
type Frame struct {
	Node     string
	Epoch    uint64
	Seq      uint64
	Sessions uint64
	Keys     []KeyDelta
}

func keyLess(a, b *KeyDelta) bool {
	if a.Method != b.Method {
		return a.Method < b.Method
	}
	if a.Browser != b.Browser {
		return a.Browser < b.Browser
	}
	return a.Region < b.Region
}

// AppendFrame appends the canonical encoding of f to b and returns the
// extended slice. Keys are encoded in sorted (method, browser, region)
// order regardless of input order (the input slice is not mutated);
// sketches are flushed by the sketch encoder but otherwise unchanged.
func AppendFrame(b []byte, f *Frame) ([]byte, error) {
	if f.Node == "" || len(f.Node) > maxLabel {
		return nil, fmt.Errorf("fleetwire: node name %q out of range", f.Node)
	}
	if len(f.Keys) > maxKeys {
		return nil, fmt.Errorf("fleetwire: %d keys exceeds frame cap", len(f.Keys))
	}
	order := make([]*KeyDelta, len(f.Keys))
	for i := range f.Keys {
		kd := &f.Keys[i]
		if len(kd.Method) > maxLabel || len(kd.Browser) > maxLabel || len(kd.Region) > maxLabel {
			return nil, fmt.Errorf("fleetwire: key label too long")
		}
		order[i] = kd
	}
	sort.SliceStable(order, func(i, j int) bool { return keyLess(order[i], order[j]) })
	for i := 1; i < len(order); i++ {
		if !keyLess(order[i-1], order[i]) {
			return nil, fmt.Errorf("fleetwire: duplicate key %s/%s/%s",
				order[i].Method, order[i].Browser, order[i].Region)
		}
	}

	b, start := codec.Begin(b, 0)
	b = frame.AppendString(b, f.Node)
	b = binary.LittleEndian.AppendUint64(b, f.Epoch)
	b = binary.LittleEndian.AppendUint64(b, f.Seq)
	b = binary.LittleEndian.AppendUint64(b, f.Sessions)
	b = binary.AppendUvarint(b, uint64(len(order)))
	for _, kd := range order {
		b = frame.AppendString(b, kd.Method)
		b = frame.AppendString(b, kd.Browser)
		b = frame.AppendString(b, kd.Region)
		b = binary.LittleEndian.AppendUint64(b, kd.Count)
		b = binary.LittleEndian.AppendUint64(b, kd.Lost)
		b = frame.AppendF64(b, kd.JitterSum)
		b = binary.LittleEndian.AppendUint64(b, kd.JitterN)
		sk := kd.Sketch
		if sk == nil {
			sk = obs.NewSketch()
		}
		b = binary.AppendUvarint(b, uint64(sk.EncodedLen()))
		b = sk.AppendBinary(b)
	}
	return codec.Seal(b, start)
}

// DecodeFrame parses the first frame in b and returns it with the
// number of bytes consumed, so a POST body carrying several
// back-to-back frames decodes with repeated calls. Errors wrap the
// internal/frame sentinels: ErrTruncated (incomplete input — more bytes
// may complete the frame), ErrVersion (intact frame of another version;
// consumed reports the full frame length so the caller can skip it) or
// ErrCorrupt.
func DecodeFrame(b []byte) (*Frame, int, error) {
	kind, payload, n, err := codec.Decode(b)
	if err != nil {
		return nil, n, err
	}
	if kind != 0 {
		return nil, 0, fmt.Errorf("%w: nonzero kind %d", frame.ErrCorrupt, kind)
	}
	f, err := decodePayload(payload)
	if err != nil {
		return nil, 0, err
	}
	return f, n, nil
}

func decodePayload(p []byte) (*Frame, error) {
	r := frame.NewReader(p)
	f := &Frame{Node: r.String(maxLabel), Epoch: r.U64(), Seq: r.U64(), Sessions: r.U64()}
	if f.Node == "" {
		return nil, fmt.Errorf("%w: node name", frame.ErrCorrupt)
	}
	f.Keys = make([]KeyDelta, r.Count(maxKeys, minKeyEnc))
	for i := range f.Keys {
		kd := &f.Keys[i]
		kd.Method, kd.Browser, kd.Region = r.String(maxLabel), r.String(maxLabel), r.String(maxLabel)
		kd.Count, kd.Lost, kd.JitterSum, kd.JitterN = r.U64(), r.U64(), r.F64(), r.U64()
		blob := r.Bytes(MaxPayload)
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("key %d: %w", i, err)
		}
		if math.IsNaN(kd.JitterSum) || kd.Lost > kd.Count {
			return nil, fmt.Errorf("%w: key %d counters out of range", frame.ErrCorrupt, i)
		}
		if i > 0 && !keyLess(&f.Keys[i-1], kd) {
			return nil, fmt.Errorf("%w: keys not in canonical order", frame.ErrCorrupt)
		}
		var err error
		if kd.Sketch, err = obs.DecodeSketch(blob); err != nil {
			return nil, fmt.Errorf("%w: key %d sketch: %v", frame.ErrCorrupt, i, err)
		}
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	return f, nil
}
