// Package netsim provides the simulated network substrate: binary packet
// codecs for Ethernet II, IPv4, TCP and UDP (the wire formats are real, so
// captured traffic can be written to pcap files and opened in Wireshark),
// plus hosts, full-duplex links and a store-and-forward switch driven by
// the eventsim virtual clock.
package netsim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"net/netip"
)

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// String renders the address in the canonical colon form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// Broadcast is the all-ones Ethernet broadcast address.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// EtherType values used by the simulator.
const (
	EtherTypeIPv4 uint16 = 0x0800
)

// IP protocol numbers.
const (
	ProtoTCP byte = 6
	ProtoUDP byte = 17
)

// Common codec errors.
var (
	ErrTruncated = errors.New("netsim: truncated packet")
	ErrBadHeader = errors.New("netsim: malformed header")
)

// Ethernet is an Ethernet II frame header.
type Ethernet struct {
	Dst, Src  MAC
	EtherType uint16
}

const ethernetHeaderLen = 14

// put writes the 14-byte header into b[:ethernetHeaderLen].
func (e *Ethernet) put(b []byte) {
	copy(b[0:6], e.Dst[:])
	copy(b[6:12], e.Src[:])
	binary.BigEndian.PutUint16(b[12:14], e.EtherType)
}

// decode fills e from the front of b and returns the payload.
func (e *Ethernet) decode(b []byte) ([]byte, error) {
	if len(b) < ethernetHeaderLen {
		return nil, fmt.Errorf("%w: ethernet header needs %d bytes, have %d", ErrTruncated, ethernetHeaderLen, len(b))
	}
	e.EtherType = binary.BigEndian.Uint16(b[12:14])
	copy(e.Dst[:], b[0:6])
	copy(e.Src[:], b[6:12])
	return b[ethernetHeaderLen:], nil
}

// IPv4 is an IPv4 header without options.
type IPv4 struct {
	TOS      byte
	ID       uint16
	Flags    byte // upper 3 bits of the fragment word
	FragOff  uint16
	TTL      byte
	Protocol byte
	Src, Dst netip.Addr
}

const ipv4HeaderLen = 20

// put writes the 20-byte header (with computed checksum and total length
// for a payload of payloadLen bytes) into b[:ipv4HeaderLen].
func (ip *IPv4) put(b []byte, payloadLen int) {
	b[0] = 0x45 // version 4, IHL 5
	b[1] = ip.TOS
	binary.BigEndian.PutUint16(b[2:4], uint16(ipv4HeaderLen+payloadLen))
	binary.BigEndian.PutUint16(b[4:6], ip.ID)
	frag := uint16(ip.Flags)<<13 | ip.FragOff&0x1fff
	binary.BigEndian.PutUint16(b[6:8], frag)
	ttl := ip.TTL
	if ttl == 0 {
		ttl = 64
	}
	b[8] = ttl
	b[9] = ip.Protocol
	b[10], b[11] = 0, 0
	src := ip.Src.As4()
	dst := ip.Dst.As4()
	copy(b[12:16], src[:])
	copy(b[16:20], dst[:])
	binary.BigEndian.PutUint16(b[10:12], Checksum(b[:ipv4HeaderLen]))
}

// decode fills ip from the front of b and returns the payload. The header
// checksum is verified.
func (ip *IPv4) decode(b []byte) ([]byte, error) {
	if len(b) < ipv4HeaderLen {
		return nil, fmt.Errorf("%w: ipv4 header needs %d bytes, have %d", ErrTruncated, ipv4HeaderLen, len(b))
	}
	if b[0]>>4 != 4 {
		return nil, fmt.Errorf("%w: not IPv4 (version %d)", ErrBadHeader, b[0]>>4)
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < ipv4HeaderLen || len(b) < ihl {
		return nil, fmt.Errorf("%w: bad IHL %d", ErrBadHeader, ihl)
	}
	if Checksum(b[:ihl]) != 0 {
		return nil, fmt.Errorf("%w: ipv4 checksum mismatch", ErrBadHeader)
	}
	total := int(binary.BigEndian.Uint16(b[2:4]))
	if total < ihl || total > len(b) {
		return nil, fmt.Errorf("%w: total length %d outside [%d,%d]", ErrBadHeader, total, ihl, len(b))
	}
	frag := binary.BigEndian.Uint16(b[6:8])
	ip.TOS = b[1]
	ip.ID = binary.BigEndian.Uint16(b[4:6])
	ip.Flags = byte(frag >> 13)
	ip.FragOff = frag & 0x1fff
	ip.TTL = b[8]
	ip.Protocol = b[9]
	ip.Src = netip.AddrFrom4([4]byte(b[12:16]))
	ip.Dst = netip.AddrFrom4([4]byte(b[16:20]))
	return b[ihl:total], nil
}

// TCP flag bits.
const (
	FlagFIN = 1 << 0
	FlagSYN = 1 << 1
	FlagRST = 1 << 2
	FlagPSH = 1 << 3
	FlagACK = 1 << 4
)

// TCP is a TCP header without options.
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            byte
	Window           uint16
}

const tcpHeaderLen = 20

// put writes the 20-byte header into b[:tcpHeaderLen] and stamps the
// pseudo-header checksum over all of b, whose tail must already hold the
// payload.
func (t *TCP) put(b []byte, src, dst netip.Addr) {
	binary.BigEndian.PutUint16(b[0:2], t.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], t.DstPort)
	binary.BigEndian.PutUint32(b[4:8], t.Seq)
	binary.BigEndian.PutUint32(b[8:12], t.Ack)
	b[12] = 5 << 4 // data offset: 5 words
	b[13] = t.Flags
	win := t.Window
	if win == 0 {
		win = 65535
	}
	binary.BigEndian.PutUint16(b[14:16], win)
	b[16], b[17] = 0, 0
	b[18], b[19] = 0, 0
	binary.BigEndian.PutUint16(b[16:18], pseudoChecksum(src, dst, ProtoTCP, b))
}

// decode fills t from the front of b, verifying the checksum against the
// given IPv4 endpoints, and returns the payload.
func (t *TCP) decode(src, dst netip.Addr, b []byte) ([]byte, error) {
	if len(b) < tcpHeaderLen {
		return nil, fmt.Errorf("%w: tcp header needs %d bytes, have %d", ErrTruncated, tcpHeaderLen, len(b))
	}
	off := int(b[12]>>4) * 4
	if off < tcpHeaderLen || len(b) < off {
		return nil, fmt.Errorf("%w: bad tcp data offset %d", ErrBadHeader, off)
	}
	if pseudoChecksum(src, dst, ProtoTCP, b) != 0 {
		return nil, fmt.Errorf("%w: tcp checksum mismatch", ErrBadHeader)
	}
	t.SrcPort = binary.BigEndian.Uint16(b[0:2])
	t.DstPort = binary.BigEndian.Uint16(b[2:4])
	t.Seq = binary.BigEndian.Uint32(b[4:8])
	t.Ack = binary.BigEndian.Uint32(b[8:12])
	t.Flags = b[13]
	t.Window = binary.BigEndian.Uint16(b[14:16])
	return b[off:], nil
}

// FlagString renders the flag bits as in tcpdump (e.g. "SA" for SYN+ACK).
func (t *TCP) FlagString() string {
	s := ""
	if t.Flags&FlagSYN != 0 {
		s += "S"
	}
	if t.Flags&FlagFIN != 0 {
		s += "F"
	}
	if t.Flags&FlagRST != 0 {
		s += "R"
	}
	if t.Flags&FlagPSH != 0 {
		s += "P"
	}
	if t.Flags&FlagACK != 0 {
		s += "A"
	}
	if s == "" {
		s = "."
	}
	return s
}

// UDP is a UDP header.
type UDP struct {
	SrcPort, DstPort uint16
}

const udpHeaderLen = 8

// put writes the 8-byte header (with length and pseudo-header checksum)
// into b[:udpHeaderLen]; the tail of b must already hold the payload.
func (u *UDP) put(b []byte, src, dst netip.Addr) {
	binary.BigEndian.PutUint16(b[0:2], u.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], u.DstPort)
	binary.BigEndian.PutUint16(b[4:6], uint16(len(b)))
	b[6], b[7] = 0, 0
	sum := pseudoChecksum(src, dst, ProtoUDP, b)
	if sum == 0 {
		sum = 0xffff // RFC 768: transmitted zero checksum means "none"
	}
	binary.BigEndian.PutUint16(b[6:8], sum)
}

// decode fills u from the front of b, verifying length and checksum.
func (u *UDP) decode(src, dst netip.Addr, b []byte) ([]byte, error) {
	if len(b) < udpHeaderLen {
		return nil, fmt.Errorf("%w: udp header needs %d bytes, have %d", ErrTruncated, udpHeaderLen, len(b))
	}
	length := int(binary.BigEndian.Uint16(b[4:6]))
	if length < udpHeaderLen || length > len(b) {
		return nil, fmt.Errorf("%w: udp length %d outside [%d,%d]", ErrBadHeader, length, udpHeaderLen, len(b))
	}
	if binary.BigEndian.Uint16(b[6:8]) != 0 && pseudoChecksum(src, dst, ProtoUDP, b[:length]) != 0 {
		return nil, fmt.Errorf("%w: udp checksum mismatch", ErrBadHeader)
	}
	u.SrcPort = binary.BigEndian.Uint16(b[0:2])
	u.DstPort = binary.BigEndian.Uint16(b[2:4])
	return b[udpHeaderLen:length], nil
}

// Checksum computes the RFC 1071 Internet checksum of b.
func Checksum(b []byte) uint16 {
	return fold(sumWords(0, b))
}

// pseudoChecksum computes the TCP/UDP checksum including the IPv4
// pseudo-header. segment must already contain a zero (or original)
// checksum field; verifying a correct segment yields 0.
func pseudoChecksum(src, dst netip.Addr, proto byte, segment []byte) uint16 {
	s4, d4 := src.As4(), dst.As4()
	acc := uint64(binary.BigEndian.Uint32(s4[:])) + uint64(binary.BigEndian.Uint32(d4[:]))
	acc += uint64(proto) + uint64(len(segment))
	return fold(sumWords(acc, segment))
}

// sumWords adds b, read as big-endian 16-bit words (an odd last byte
// padded with a zero), to the one's-complement accumulator acc. It reads
// eight bytes per step: since 2^16 ≡ 1 (mod 2^16-1), a big-endian 64-bit
// word is congruent to the sum of its four 16-bit words, and the
// end-around carry keeps acc congruent to the 16-bit sum (RFC 1071 §2).
// acc stays nonzero once any word is nonzero, so fold tells a zero sum
// from 0xffff exactly as a 16-bit loop does.
func sumWords(acc uint64, b []byte) uint64 {
	for len(b) >= 8 {
		acc = addCarry(acc, binary.BigEndian.Uint64(b))
		b = b[8:]
	}
	if len(b) >= 4 {
		acc = addCarry(acc, uint64(binary.BigEndian.Uint32(b)))
		b = b[4:]
	}
	if len(b) >= 2 {
		acc = addCarry(acc, uint64(binary.BigEndian.Uint16(b)))
		b = b[2:]
	}
	if len(b) == 1 {
		acc = addCarry(acc, uint64(b[0])<<8)
	}
	return acc
}

// addCarry adds v to acc with the end-around carry of one's-complement
// arithmetic.
func addCarry(acc, v uint64) uint64 {
	sum, carry := bits.Add64(acc, v, 0)
	return sum + carry
}

// fold reduces a one's-complement accumulator to 16 bits and complements
// it, giving the checksum field value.
func fold(acc uint64) uint16 {
	acc = acc>>32 + acc&0xffffffff // < 2^33
	acc = acc>>32 + acc&0xffffffff // < 2^32
	acc = acc>>16 + acc&0xffff     // < 2^17
	acc = acc>>16 + acc&0xffff     // <= 0xffff
	return ^uint16(acc)
}
