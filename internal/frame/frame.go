// Package frame is the one codec every binary wire and file in the repo
// speaks: the fleet plane's delta-sketch frames (fleetwire), the sketch
// blobs inside fleet frames (obs) and the sweep cache's cell files
// (sweep). It owns both halves of the grammar. A wire chooses its
// magic, version and payload cap; the header layout, the checksum and
// the order in which decode checks them are shared, so "a bit flip is
// corruption, never version skew" holds on every wire by construction.
// Payload fields are written with the Append helpers and read back
// through one strict Reader, so "an accepted payload re-encodes to the
// same bytes" holds on every wire too.
//
// Frame layout (integers little-endian):
//
//	[4]byte  magic (one per wire)
//	u16      wire version
//	u16      kind (message type; a single-kind wire uses 0)
//	u32      payload length
//	payload
//	u32      CRC-32 (Castagnoli) over version, kind, length and payload
//
// Decode checks the length cap, then truncation, then the CRC, and only
// then the version. Because the CRC covers the header, a flipped
// version, kind or length bit fails the checksum and is ErrCorrupt; only
// a frame sealed under another version is ErrVersion, and it reports
// its full length so a stream can skip it.
//
// Payload grammar: fixed-width integers are little-endian, floats are
// raw IEEE 754 bits, a bool is one byte 0 or 1, and lengths and counts
// are uvarints in their minimal form only. Strings and byte blobs are a
// uvarint length plus the bytes.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

const (
	// HeaderLen is the fixed header: magic, version, kind, length.
	HeaderLen = 12
	// TrailerLen is the CRC-32C trailer.
	TrailerLen = 4
)

// Sentinel errors; Decode and Len wrap them with positional detail.
var (
	// ErrTruncated marks an input that ends mid-frame: a stream reader
	// may retry with more bytes.
	ErrTruncated = errors.New("frame: truncated")
	// ErrCorrupt marks a structurally invalid or checksum-failing frame.
	ErrCorrupt = errors.New("frame: corrupt")
	// ErrVersion marks an intact (checksum-valid) frame of another
	// version.
	ErrVersion = errors.New("frame: unsupported wire version")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Codec frames one wire's messages.
type Codec struct {
	// Magic opens every frame; it doubles as a stream-desync detector.
	Magic [4]byte
	// Version is the wire version this codec writes and accepts.
	Version uint16
	// MaxPayload bounds one frame's payload, so a corrupt length prefix
	// cannot become an allocation bomb.
	MaxPayload int
}

// Begin appends the header of a frame of the given kind to b, with a
// length placeholder. The caller appends the payload to the returned
// slice in place and hands the returned start offset to Seal.
func (c *Codec) Begin(b []byte, kind uint16) ([]byte, int) {
	start := len(b)
	b = append(b, c.Magic[:]...)
	b = binary.LittleEndian.AppendUint16(b, c.Version)
	b = binary.LittleEndian.AppendUint16(b, kind)
	b = binary.LittleEndian.AppendUint32(b, 0)
	return b, start
}

// Seal completes the frame that starts at b[start:]: it patches the
// payload length into the header and appends the CRC over everything
// after the magic. Sealing a frame whose trailer was cut off reseals it,
// which is how tests build intact frames of another version.
func (c *Codec) Seal(b []byte, start int) ([]byte, error) {
	n := len(b) - start - HeaderLen
	if n > c.MaxPayload {
		return nil, fmt.Errorf("frame: %q payload %d exceeds cap %d", c.Magic[:], n, c.MaxPayload)
	}
	binary.LittleEndian.PutUint32(b[start+8:], uint32(n))
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[start+4:], castagnoli)), nil
}

// Len returns the total length of the frame whose header opens b,
// checking only the magic and the length cap — enough for a stream
// reader to size its buffer before the rest of the frame arrives.
func (c *Codec) Len(b []byte) (int, error) {
	if len(b) < HeaderLen {
		return 0, fmt.Errorf("%w: %d header bytes", ErrTruncated, len(b))
	}
	if [4]byte(b[:4]) != c.Magic {
		return 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	n := binary.LittleEndian.Uint32(b[8:])
	if int64(n) > int64(c.MaxPayload) {
		return 0, fmt.Errorf("%w: payload length %d", ErrCorrupt, n)
	}
	return HeaderLen + int(n) + TrailerLen, nil
}

// Decode parses the first frame in b and returns its kind, its payload
// (aliasing b) and the number of bytes consumed. Errors wrap
// ErrTruncated (consumed 0), ErrCorrupt (consumed 0: nothing after a
// failed check can be trusted, not even the length) or ErrVersion
// (consumed is the full frame length, so the caller can skip it).
func (c *Codec) Decode(b []byte) (kind uint16, payload []byte, n int, err error) {
	total, err := c.Len(b)
	if err != nil {
		return 0, nil, 0, err
	}
	if len(b) < total {
		return 0, nil, 0, fmt.Errorf("%w: have %d of %d bytes", ErrTruncated, len(b), total)
	}
	end := total - TrailerLen
	if crc32.Checksum(b[4:end], castagnoli) != binary.LittleEndian.Uint32(b[end:]) {
		return 0, nil, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint16(b[4:]); v != c.Version {
		return 0, nil, total, fmt.Errorf("%w: got %d, want %d", ErrVersion, v, c.Version)
	}
	return binary.LittleEndian.Uint16(b[6:]), b[HeaderLen:end], total, nil
}

// AppendString appends s as a uvarint length plus its bytes.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendF64 appends the IEEE 754 bits of v, little-endian.
func AppendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// Reader is a strict cursor over one payload. It accepts exactly the
// bytes the Append helpers and binary.LittleEndian/AppendUvarint write:
// a bool other than 0 or 1, a uvarint in non-minimal form, or a length
// or count over its cap is a failed read. The first failure sticks:
// every later read returns a zero value, and Err and End report the
// first failure with its payload offset, wrapped in ErrCorrupt.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over p.
func NewReader(p []byte) Reader { return Reader{buf: p} }

// fail records the first failure at offset at and empties the cursor,
// so every later read fails its bounds check and returns zero.
func (r *Reader) fail(at int, what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at payload offset %d", ErrCorrupt, what, at)
	}
	r.buf, r.off = nil, 0
}

// short fails and reports true if fewer than n bytes remain.
func (r *Reader) short(n int, what string) bool {
	if n <= len(r.buf)-r.off {
		return false
	}
	r.fail(r.off, what)
	return true
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	if r.short(1, "short u8") {
		return 0
	}
	r.off++
	return r.buf[r.off-1]
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if r.short(4, "short u32") {
		return 0
	}
	r.off += 4
	return binary.LittleEndian.Uint32(r.buf[r.off-4:])
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if r.short(8, "short u64") {
		return 0
	}
	r.off += 8
	return binary.LittleEndian.Uint64(r.buf[r.off-8:])
}

// F64 reads the IEEE 754 bits of a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	}
	r.fail(r.off-1, "bool not 0 or 1")
	return false
}

// Uvarint reads a uvarint in its minimal form: a longer encoding of the
// same value (a trailing 0x00 group) is rejected, so every accepted
// payload has exactly one encoding.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 || n > 1 && r.buf[r.off+n-1] == 0 {
		r.fail(r.off, "bad uvarint")
		return 0
	}
	r.off += n
	return v
}

// Bytes reads a uvarint length of at most max and that many bytes. The
// result aliases the payload.
func (r *Reader) Bytes(max int) []byte {
	at := r.off
	n := r.Uvarint()
	if n > uint64(max) || n > uint64(len(r.buf)-r.off) {
		r.fail(at, "length over cap or past end")
		return nil
	}
	r.off += int(n)
	return r.buf[r.off-int(n) : r.off]
}

// String reads a uvarint length of at most max and that many bytes.
func (r *Reader) String(max int) string { return string(r.Bytes(max)) }

// Count reads an element count of at most max, each element occupying
// at least minElemBytes (> 0) of the remaining payload. The bound
// divides the remaining length rather than multiplying the count, so a
// hostile count near 2^64 cannot wrap past it and force a huge
// pre-allocation.
func (r *Reader) Count(max, minElemBytes int) int {
	at := r.off
	n := r.Uvarint()
	if n > uint64(max) || n > uint64(len(r.buf)-r.off)/uint64(minElemBytes) {
		r.fail(at, "count over cap")
		return 0
	}
	return int(n)
}

// Err reports the first failed read, or nil.
func (r *Reader) Err() error { return r.err }

// End is the check after a payload's last field: it reports the first
// failed read, or any bytes left unread.
func (r *Reader) End() error {
	if r.err == nil && r.off != len(r.buf) {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(r.buf)-r.off)
	}
	return r.err
}
