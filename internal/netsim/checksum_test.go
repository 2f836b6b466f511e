package netsim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"net/netip"
	"testing"
	"time"
)

// refChecksum is the plain RFC 1071 loop, one 16-bit word per step: the
// reference the word-at-a-time kernel must match bit for bit.
func refChecksum(b []byte) uint16 {
	var sum uint32
	for len(b) >= 2 {
		sum += uint32(binary.BigEndian.Uint16(b[:2]))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// refPseudoChecksum is refChecksum over the IPv4 pseudo-header and segment.
func refPseudoChecksum(src, dst netip.Addr, proto byte, segment []byte) uint16 {
	var sum uint32
	s4, d4 := src.As4(), dst.As4()
	sum += uint32(binary.BigEndian.Uint16(s4[0:2])) + uint32(binary.BigEndian.Uint16(s4[2:4]))
	sum += uint32(binary.BigEndian.Uint16(d4[0:2])) + uint32(binary.BigEndian.Uint16(d4[2:4]))
	sum += uint32(proto)
	sum += uint32(len(segment))
	b := segment
	for len(b) >= 2 {
		sum += uint32(binary.BigEndian.Uint16(b[:2]))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// maxDatagram caps compared inputs at the largest IPv4 datagram. The
// reference's 32-bit accumulator is exact only up to 131074 bytes of
// 0xff; no checksummed buffer in the simulator comes near that.
const maxDatagram = 0xffff

// checkChecksum compares both kernels against the reference on one input.
func checkChecksum(t *testing.T, data []byte, src, dst netip.Addr, proto byte) {
	t.Helper()
	if got, want := Checksum(data), refChecksum(data); got != want {
		t.Fatalf("Checksum(%d bytes) = %#04x, reference %#04x", len(data), got, want)
	}
	if got, want := pseudoChecksum(src, dst, proto, data), refPseudoChecksum(src, dst, proto, data); got != want {
		t.Fatalf("pseudoChecksum(%v, %v, %d, %d bytes) = %#04x, reference %#04x", src, dst, proto, len(data), got, want)
	}
}

// checksumSeeds returns the seed buffers for FuzzChecksum: short lengths
// around the kernel's 8-, 4-, 2- and 1-byte steps, a full 1514-byte TCP
// frame, and all-0x00 and all-0xff buffers (the two one's-complement zeros).
func checksumSeeds() [][]byte {
	seeds := [][]byte{}
	for _, n := range []int{0, 1, 2, 3, 7, 8, 9} {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(0x31 * (i + 1))
		}
		seeds = append(seeds, b)
	}
	frame := BuildTCPArena(nil, macA, macB, ipA, ipB, 9,
		&TCP{SrcPort: 49152, DstPort: 80, Seq: 1, Ack: 2, Flags: FlagACK},
		bytes.Repeat([]byte("0123456789"), 146))
	seeds = append(seeds, frame)
	for _, n := range []int{1, 2, 8, 9, 20, 1514} {
		seeds = append(seeds, make([]byte, n), bytes.Repeat([]byte{0xff}, n))
	}
	return seeds
}

func FuzzChecksum(f *testing.F) {
	for _, s := range checksumSeeds() {
		f.Add(s, uint32(0xc0a8010a), uint32(0xc0a80114), ProtoTCP)
	}
	f.Add([]byte{}, uint32(0), uint32(0), byte(0))
	f.Add(bytes.Repeat([]byte{0xff}, 64), ^uint32(0), ^uint32(0), byte(0xff))
	f.Fuzz(func(t *testing.T, data []byte, src, dst uint32, proto byte) {
		if len(data) > maxDatagram {
			data = data[:maxDatagram]
		}
		var s4, d4 [4]byte
		binary.BigEndian.PutUint32(s4[:], src)
		binary.BigEndian.PutUint32(d4[:], dst)
		checkChecksum(t, data, netip.AddrFrom4(s4), netip.AddrFrom4(d4), proto)
	})
}

// TestChecksumMatchesReference sweeps every length up to 80 bytes and a
// few large ones, with random, all-0x00 and all-0xff contents, so the
// kernel's tail handling is covered on every `go test`.
func TestChecksumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lengths := []int{1499, 1500, 1514, maxDatagram - 1, maxDatagram}
	for n := 0; n <= 80; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		random := make([]byte, n)
		rng.Read(random)
		for _, data := range [][]byte{random, make([]byte, n), bytes.Repeat([]byte{0xff}, n)} {
			checkChecksum(t, data, ipA, ipB, ProtoUDP)
			checkChecksum(t, data, netip.IPv4Unspecified(), netip.IPv4Unspecified(), 0)
			checkChecksum(t, data, netip.AddrFrom4([4]byte{255, 255, 255, 255}), netip.AddrFrom4([4]byte{255, 255, 255, 255}), 0xff)
		}
	}
}

// TestOversizePayloadRefused pins the datagram boundary: the largest TCP
// and UDP payloads one IPv4 datagram holds still round-trip, and one byte
// more is refused before a frame (with a wrapped length field) is built.
func TestOversizePayloadRefused(t *testing.T) {
	cases := []struct {
		name  string
		limit int
		build func(payload []byte) []byte
	}{
		{"tcp", 65495, func(p []byte) []byte {
			return BuildTCPArena(nil, macA, macB, ipA, ipB, 1, &TCP{SrcPort: 1, DstPort: 2}, p)
		}},
		{"udp", 65507, func(p []byte) []byte {
			return BuildUDPArena(nil, macA, macB, ipA, ipB, 1, &UDP{SrcPort: 1, DstPort: 2}, p)
		}},
	}
	if MaxTCPPayload != cases[0].limit || MaxUDPPayload != cases[1].limit {
		t.Fatalf("MaxTCPPayload, MaxUDPPayload = %d, %d; want 65495, 65507", MaxTCPPayload, MaxUDPPayload)
	}
	for _, c := range cases {
		payload := bytes.Repeat([]byte{0xa5}, c.limit+1)
		p, err := Decode(c.build(payload[:c.limit]), time.Millisecond)
		if err != nil {
			t.Fatalf("%s: %d-byte payload: %v", c.name, c.limit, err)
		}
		if !bytes.Equal(p.Payload, payload[:c.limit]) {
			t.Fatalf("%s: %d-byte payload decoded to %d bytes", c.name, c.limit, len(p.Payload))
		}
		func() {
			defer func() {
				err, _ := recover().(error)
				if !errors.Is(err, ErrPayloadTooLarge) {
					t.Fatalf("%s: %d-byte payload: recovered %v, want ErrPayloadTooLarge", c.name, len(payload), err)
				}
			}()
			c.build(payload)
		}()
	}
}
