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
// Version 2 moved the CRC from the payload alone to header and payload;
// a version-1 root therefore counts a version-2 frame as version skew.
//
// Payload (integers little-endian):
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
const Version = 2

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
	b = appendString(b, f.Node)
	b = binary.LittleEndian.AppendUint64(b, f.Epoch)
	b = binary.LittleEndian.AppendUint64(b, f.Seq)
	b = binary.LittleEndian.AppendUint64(b, f.Sessions)
	b = binary.AppendUvarint(b, uint64(len(order)))
	for _, kd := range order {
		b = appendString(b, kd.Method)
		b = appendString(b, kd.Browser)
		b = appendString(b, kd.Region)
		b = binary.LittleEndian.AppendUint64(b, kd.Count)
		b = binary.LittleEndian.AppendUint64(b, kd.Lost)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(kd.JitterSum))
		b = binary.LittleEndian.AppendUint64(b, kd.JitterN)
		sk := kd.Sketch
		if sk == nil {
			sk = obs.NewSketch()
		}
		enc := sk.AppendBinary(nil)
		b = binary.AppendUvarint(b, uint64(len(enc)))
		b = append(b, enc...)
	}
	return codec.Seal(b, start)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
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
	d := wireReader{buf: p}
	node, ok := d.str()
	if !ok || node == "" {
		return nil, fmt.Errorf("%w: node name", frame.ErrCorrupt)
	}
	f := &Frame{Node: node}
	if f.Epoch, ok = d.u64(); !ok {
		return nil, fmt.Errorf("%w: epoch", frame.ErrCorrupt)
	}
	if f.Seq, ok = d.u64(); !ok {
		return nil, fmt.Errorf("%w: sequence", frame.ErrCorrupt)
	}
	if f.Sessions, ok = d.u64(); !ok {
		return nil, fmt.Errorf("%w: sessions", frame.ErrCorrupt)
	}
	nk, ok := d.uvarint()
	// Bound the claimed count by the fewest bytes one encoded key can
	// occupy in the remaining payload, so a lying count cannot force a
	// large pre-allocation that the first failed key parse discards.
	if !ok || nk > maxKeys || nk > uint64(len(p)-d.off)/minKeyEnc {
		return nil, fmt.Errorf("%w: key count", frame.ErrCorrupt)
	}
	f.Keys = make([]KeyDelta, 0, nk)
	for i := uint64(0); i < nk; i++ {
		var kd KeyDelta
		var jb uint64
		ok1 := true
		if kd.Method, ok = d.str(); !ok {
			ok1 = false
		}
		if kd.Browser, ok = d.str(); !ok {
			ok1 = false
		}
		if kd.Region, ok = d.str(); !ok {
			ok1 = false
		}
		if kd.Count, ok = d.u64(); !ok {
			ok1 = false
		}
		if kd.Lost, ok = d.u64(); !ok {
			ok1 = false
		}
		if jb, ok = d.u64(); !ok {
			ok1 = false
		}
		if kd.JitterN, ok = d.u64(); !ok {
			ok1 = false
		}
		if !ok1 {
			return nil, fmt.Errorf("%w: key %d truncated", frame.ErrCorrupt, i)
		}
		kd.JitterSum = math.Float64frombits(jb)
		if math.IsNaN(kd.JitterSum) || kd.Lost > kd.Count {
			return nil, fmt.Errorf("%w: key %d counters out of range", frame.ErrCorrupt, i)
		}
		skBytes, ok := d.blob()
		if !ok {
			return nil, fmt.Errorf("%w: key %d sketch truncated", frame.ErrCorrupt, i)
		}
		sk, err := obs.DecodeSketch(skBytes)
		if err != nil {
			return nil, fmt.Errorf("%w: key %d sketch: %v", frame.ErrCorrupt, i, err)
		}
		kd.Sketch = sk
		if len(f.Keys) > 0 && !keyLess(&f.Keys[len(f.Keys)-1], &kd) {
			return nil, fmt.Errorf("%w: keys not in canonical order", frame.ErrCorrupt)
		}
		f.Keys = append(f.Keys, kd)
	}
	if d.off != len(p) {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", frame.ErrCorrupt, len(p)-d.off)
	}
	return f, nil
}

// wireReader is a bounds-checked cursor over one payload.
type wireReader struct {
	buf []byte
	off int
}

func (d *wireReader) u64() (uint64, bool) {
	if d.off+8 > len(d.buf) {
		return 0, false
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, true
}

func (d *wireReader) uvarint() (uint64, bool) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, false
	}
	d.off += n
	return v, true
}

func (d *wireReader) str() (string, bool) {
	n, ok := d.uvarint()
	if !ok || n > maxLabel || d.off+int(n) > len(d.buf) {
		return "", false
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s, true
}

func (d *wireReader) blob() ([]byte, bool) {
	n, ok := d.uvarint()
	if !ok || n > uint64(len(d.buf)-d.off) {
		return nil, false
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b, true
}
