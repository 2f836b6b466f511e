// Package frame is the one framing codec every binary wire in the repo
// speaks: the fleet plane's delta-sketch frames (fleetwire) and the
// shard runner's control messages (shard). A wire chooses its magic,
// version and payload cap; the header layout, the checksum and the
// order in which decode checks them are shared, so "a bit flip is
// corruption, never version skew" holds on every wire by construction.
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
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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
