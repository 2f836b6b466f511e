package sweep

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"github.com/browsermetric/browsermetric/internal/core"
	"github.com/browsermetric/browsermetric/internal/frame"
)

// Cell file format: one internal/frame frame of kind 0 under its own
// magic, whose payload holds one cell's samples (integers as uvarints
// in their minimal form):
//
//	string   key (the content-address hash the file is stored under)
//	uvarint  sample count
//	         per sample: uvarint run, uvarint round,
//	         uvarint uint64(BrowserRTT), uvarint uint64(WireRTT),
//	         bool handshake
//
// Overhead is not stored: it is rederived as BrowserRTT − WireRTT, the
// exact integer arithmetic RunContext performs, so the file cannot even
// express an inconsistent triple. The frame's CRC-32C covers the header
// and payload; a flipped bit or truncation anywhere fails decodeCell,
// which the cache treats as a miss (detect, log, recompute).

// cellCodec frames cell files. The cap bounds the largest cell Store
// accepts: a sample takes about 12 bytes, so cells of tens of millions
// of runs fit, and a bigger one fails Store instead of being cut.
var cellCodec = frame.Codec{Magic: [4]byte{'b', 'm', 'c', 'l'}, Version: 1, MaxPayload: 1 << 30}

const (
	// cellKeyLen bounds the stored key: a lowercase hex SHA-256.
	cellKeyLen = 64
	// minSampleLen is the fewest payload bytes one sample occupies: four
	// one-byte uvarints and the handshake byte.
	minSampleLen = 5
)

// encodeCell renders samples under their content-address key.
func encodeCell(key string, samples []core.Sample) ([]byte, error) {
	// 80 bytes cover the key, the count and the trailer.
	b, start := cellCodec.Begin(make([]byte, 0, frame.HeaderLen+80+12*len(samples)), 0)
	b = frame.AppendString(b, key)
	b = binary.AppendUvarint(b, uint64(len(samples)))
	for _, s := range samples {
		b = binary.AppendUvarint(b, uint64(s.Run))
		b = binary.AppendUvarint(b, uint64(s.Round))
		b = binary.AppendUvarint(b, uint64(s.BrowserRTT))
		b = binary.AppendUvarint(b, uint64(s.WireRTT))
		b = frame.AppendBool(b, s.Handshake)
	}
	return cellCodec.Seal(b, start)
}

// decodeCell parses and verifies a cell file, returning the stored key
// and samples. The file must be exactly one intact frame of kind 0 whose
// payload the strict frame.Reader consumes to the last byte; anything
// else is an error, and the function never panics on arbitrary input
// (FuzzCellDecode enforces this).
func decodeCell(data []byte) (key string, samples []core.Sample, err error) {
	kind, p, n, err := cellCodec.Decode(data)
	if err == nil && (kind != 0 || n != len(data)) {
		err = fmt.Errorf("%w: kind %d, %d bytes after the frame", frame.ErrCorrupt, kind, len(data)-n)
	}
	if err != nil {
		return "", nil, fmt.Errorf("sweep: cell file: %w", err)
	}
	r := frame.NewReader(p)
	key = r.String(cellKeyLen)
	samples = make([]core.Sample, r.Count(math.MaxInt, minSampleLen))
	for i := range samples {
		s := &samples[i]
		s.Run, s.Round = int(r.Uvarint()), int(r.Uvarint())
		s.BrowserRTT, s.WireRTT = time.Duration(r.Uvarint()), time.Duration(r.Uvarint())
		s.Overhead = s.BrowserRTT - s.WireRTT
		s.Handshake = r.Bool()
		if r.Err() == nil && (s.Run < 0 || s.Round < 1) {
			return "", nil, fmt.Errorf("sweep: cell file: %w: sample %d has run %d, round %d", frame.ErrCorrupt, i, s.Run, s.Round)
		}
	}
	if err := r.End(); err != nil {
		return "", nil, fmt.Errorf("sweep: cell file: %w", err)
	}
	return key, samples, nil
}
