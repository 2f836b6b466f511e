package netsim

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
)

var (
	macA = MAC{0x02, 0, 0, 0, 0, 0x0a}
	macB = MAC{0x02, 0, 0, 0, 0, 0x0b}
	ipA  = netip.MustParseAddr("192.168.1.10")
	ipB  = netip.MustParseAddr("192.168.1.20")
)

// Serialize appends the header followed by payload and returns the frame.
func (e *Ethernet) Serialize(payload []byte) []byte {
	b := make([]byte, ethernetHeaderLen+len(payload))
	e.put(b)
	copy(b[ethernetHeaderLen:], payload)
	return b
}

// Serialize appends the header (with computed checksum and total length)
// followed by payload.
func (ip *IPv4) Serialize(payload []byte) []byte {
	b := make([]byte, ipv4HeaderLen+len(payload))
	ip.put(b, len(payload))
	copy(b[ipv4HeaderLen:], payload)
	return b
}

// Serialize appends the header (with checksum over the IPv4 pseudo-header)
// followed by payload.
func (t *TCP) Serialize(src, dst netip.Addr, payload []byte) []byte {
	b := make([]byte, tcpHeaderLen+len(payload))
	copy(b[tcpHeaderLen:], payload)
	t.put(b, src, dst)
	return b
}

// Serialize appends the header (with length and pseudo-header checksum)
// followed by payload.
func (u *UDP) Serialize(src, dst netip.Addr, payload []byte) []byte {
	b := make([]byte, udpHeaderLen+len(payload))
	copy(b[udpHeaderLen:], payload)
	u.put(b, src, dst)
	return b
}

// ipFrame wraps an IPv4 packet in an Ethernet II frame from macA to macB.
func ipFrame(ip *IPv4, payload []byte) []byte {
	return (&Ethernet{Dst: macB, Src: macA, EtherType: EtherTypeIPv4}).Serialize(ip.Serialize(payload))
}

// tcpFrame is a full frame carrying hdr and payload from ipA to ipB.
func tcpFrame(hdr *TCP, payload []byte) []byte {
	return ipFrame(&IPv4{Protocol: ProtoTCP, Src: ipA, Dst: ipB}, hdr.Serialize(ipA, ipB, payload))
}

// udpFrame is a full frame carrying hdr and payload from ipA to ipB.
func udpFrame(hdr *UDP, payload []byte) []byte {
	return ipFrame(&IPv4{Protocol: ProtoUDP, Src: ipA, Dst: ipB}, hdr.Serialize(ipA, ipB, payload))
}

// wantDecodeErr decodes frame through Packet.Parse and fails unless it is
// rejected with an error mentioning what.
func wantDecodeErr(t *testing.T, frame []byte, what string) {
	t.Helper()
	_, err := Decode(frame, 0)
	if err == nil || !strings.Contains(err.Error(), what) {
		t.Fatalf("Decode error = %v, want one mentioning %q", err, what)
	}
}

func TestEthernetRoundTrip(t *testing.T) {
	in := &Ethernet{Dst: macB, Src: macA, EtherType: 0x0806} // ARP: no IP layer
	payload := []byte("hello world")
	p, err := Decode(in.Serialize(payload), 0)
	if err != nil {
		t.Fatal(err)
	}
	if *p.Eth != *in {
		t.Fatalf("header = %+v, want %+v", p.Eth, in)
	}
	if rest := p.Raw[ethernetHeaderLen:]; !bytes.Equal(rest, payload) {
		t.Fatalf("payload = %q, want %q", rest, payload)
	}
}

func TestEthernetTruncated(t *testing.T) {
	wantDecodeErr(t, make([]byte, 13), "ethernet header")
}

func TestIPv4RoundTrip(t *testing.T) {
	in := &IPv4{TOS: 0x10, ID: 4242, TTL: 64, Protocol: ProtoUDP, Src: ipA, Dst: ipB}
	payload := []byte("segment bytes")
	p, err := Decode(ipFrame(in, (&UDP{SrcPort: 1, DstPort: 2}).Serialize(ipA, ipB, payload)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if out := p.IP; out.ID != in.ID || out.Protocol != in.Protocol || out.Src != in.Src || out.Dst != in.Dst || out.TOS != in.TOS {
		t.Fatalf("header = %+v, want %+v", out, in)
	}
	if !bytes.Equal(p.Payload, payload) {
		t.Fatalf("payload = %q, want %q", p.Payload, payload)
	}
}

func TestIPv4ChecksumDetectsCorruption(t *testing.T) {
	b := udpFrame(&UDP{SrcPort: 1, DstPort: 2}, nil)
	b[ethernetHeaderLen+8]++ // corrupt TTL
	wantDecodeErr(t, b, "ipv4 checksum")
}

func TestIPv4RejectsVersion6(t *testing.T) {
	b := tcpFrame(&TCP{SrcPort: 1, DstPort: 2}, nil)
	b[ethernetHeaderLen] = 0x65
	wantDecodeErr(t, b, "not IPv4")
}

func TestIPv4TotalLengthBounds(t *testing.T) {
	b := tcpFrame(&TCP{SrcPort: 1, DstPort: 2}, []byte("abc"))
	wantDecodeErr(t, b[:ethernetHeaderLen+ipv4HeaderLen], "total length")
}

func TestTCPRoundTrip(t *testing.T) {
	in := &TCP{SrcPort: 49152, DstPort: 80, Seq: 1<<31 + 5, Ack: 99, Flags: FlagPSH | FlagACK, Window: 1024}
	payload := []byte("GET / HTTP/1.1\r\n\r\n")
	p, err := Decode(tcpFrame(in, payload), 0)
	if err != nil {
		t.Fatal(err)
	}
	if *p.TCP != *in {
		t.Fatalf("header = %+v, want %+v", p.TCP, in)
	}
	if !bytes.Equal(p.Payload, payload) {
		t.Fatalf("payload = %q, want %q", p.Payload, payload)
	}
}

func TestTCPChecksumBindsEndpoints(t *testing.T) {
	seg := (&TCP{SrcPort: 1, DstPort: 2, Window: 1}).Serialize(ipA, ipB, nil)
	// Decoding against a different address must fail: checksum covers the
	// pseudo-header. (Swapping src/dst alone is sum-commutative, so use a
	// genuinely different endpoint.)
	other := netip.MustParseAddr("10.9.9.9")
	wantDecodeErr(t, ipFrame(&IPv4{Protocol: ProtoTCP, Src: ipA, Dst: other}, seg), "tcp checksum")
}

func TestTCPCorruptPayloadDetected(t *testing.T) {
	b := tcpFrame(&TCP{SrcPort: 5, DstPort: 6, Window: 10}, []byte("data"))
	b[len(b)-1] ^= 0xff
	wantDecodeErr(t, b, "tcp checksum")
}

func TestTCPFlagString(t *testing.T) {
	cases := []struct {
		flags byte
		want  string
	}{
		{FlagSYN, "S"},
		{FlagSYN | FlagACK, "SA"},
		{FlagPSH | FlagACK, "PA"},
		{FlagFIN | FlagACK, "FA"},
		{FlagRST, "R"},
		{0, "."},
	}
	for _, c := range cases {
		if got := (&TCP{Flags: c.flags}).FlagString(); got != c.want {
			t.Errorf("FlagString(%08b) = %q, want %q", c.flags, got, c.want)
		}
	}
}

func TestUDPRoundTrip(t *testing.T) {
	in := &UDP{SrcPort: 5353, DstPort: 53}
	payload := []byte{1, 2, 3, 4, 5}
	p, err := Decode(udpFrame(in, payload), 0)
	if err != nil {
		t.Fatal(err)
	}
	if *p.UDP != *in {
		t.Fatalf("header = %+v, want %+v", p.UDP, in)
	}
	if !bytes.Equal(p.Payload, payload) {
		t.Fatalf("payload = %v, want %v", p.Payload, payload)
	}
}

func TestUDPEmptyPayload(t *testing.T) {
	p, err := Decode(udpFrame(&UDP{SrcPort: 1, DstPort: 2}, nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Payload) != 0 {
		t.Fatalf("payload = %v, want empty", p.Payload)
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// Classic RFC 1071 example: checksum of these words is 0xddf2.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(b); got != ^uint16(0xddf2) {
		t.Fatalf("Checksum = %#04x, want %#04x", got, ^uint16(0xddf2))
	}
}

func TestChecksumOddLength(t *testing.T) {
	// Verifying data with its own checksum appended must yield zero.
	data := []byte{0xab, 0xcd, 0xef}
	sum := Checksum(data)
	full := append(append([]byte{}, data...), byte(0), byte(0))
	// Put checksum where a header would carry it: simplest check is that
	// Checksum(data with sum folded in) == 0 when appended as a 16-bit word
	// aligned; emulate by padding data to even length first.
	padded := append(append([]byte{}, data...), 0)
	sum = Checksum(padded)
	full = append(padded, byte(sum>>8), byte(sum))
	if got := Checksum(full); got != 0 {
		t.Fatalf("self-verifying checksum = %#04x, want 0", got)
	}
}

func TestMACString(t *testing.T) {
	m := MAC{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}
	if got := m.String(); got != "de:ad:be:ef:00:01" {
		t.Fatalf("String = %q", got)
	}
}

func TestDecodeFullStack(t *testing.T) {
	payload := []byte("ping")
	frame := BuildTCPArena(nil, macA, macB, ipA, ipB, 7, &TCP{SrcPort: 1234, DstPort: 80, Seq: 1, Flags: FlagPSH | FlagACK}, payload)
	p, err := Decode(frame, 42)
	if err != nil {
		t.Fatal(err)
	}
	if p.Eth == nil || p.IP == nil || p.TCP == nil || p.UDP != nil {
		t.Fatalf("layer set wrong: %+v", p)
	}
	if p.TCP.SrcPort != 1234 || p.TCP.DstPort != 80 {
		t.Fatalf("ports = %d>%d", p.TCP.SrcPort, p.TCP.DstPort)
	}
	if !bytes.Equal(p.Payload, payload) {
		t.Fatalf("payload = %q", p.Payload)
	}
	if p.String() == "" {
		t.Fatal("String() empty")
	}
}

func TestDecodeUDPStack(t *testing.T) {
	frame := BuildUDPArena(nil, macA, macB, ipA, ipB, 9, &UDP{SrcPort: 999, DstPort: 7}, []byte("echo"))
	p, err := Decode(frame, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.UDP == nil || p.TCP != nil {
		t.Fatal("expected UDP layer only")
	}
	if string(p.Payload) != "echo" {
		t.Fatalf("payload = %q", p.Payload)
	}
}

func TestDecodeNonIPFrame(t *testing.T) {
	e := &Ethernet{Dst: macB, Src: macA, EtherType: 0x0806} // ARP
	p, err := Decode(e.Serialize([]byte{0, 1}), 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.IP != nil {
		t.Fatal("unexpected IP layer on ARP frame")
	}
	if p.String() == "" {
		t.Fatal("String() empty for non-IP frame")
	}
}

// Property: TCP serialize/decode round-trips for arbitrary headers and
// payloads.
func TestQuickTCPRoundTrip(t *testing.T) {
	f := func(sp, dp uint16, seq, ack uint32, payload []byte) bool {
		if len(payload) > MaxTCPPayload {
			payload = payload[:MaxTCPPayload]
		}
		in := &TCP{SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack, Flags: FlagACK, Window: 512}
		p, err := Decode(tcpFrame(in, payload), 0)
		if err != nil || p.TCP == nil {
			return false
		}
		return *p.TCP == *in && bytes.Equal(p.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: UDP round-trips for arbitrary payloads.
func TestQuickUDPRoundTrip(t *testing.T) {
	f := func(sp, dp uint16, payload []byte) bool {
		if len(payload) > 60000 {
			payload = payload[:60000]
		}
		in := &UDP{SrcPort: sp, DstPort: dp}
		p, err := Decode(udpFrame(in, payload), 0)
		if err != nil || p.UDP == nil {
			return false
		}
		return *p.UDP == *in && bytes.Equal(p.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: single-bit corruption anywhere in an IPv4 header is detected.
func TestQuickIPv4CorruptionDetected(t *testing.T) {
	f := func(id uint16, bit uint8) bool {
		in := &IPv4{ID: id, Protocol: ProtoUDP, Src: ipA, Dst: ipB}
		b := ipFrame(in, (&UDP{SrcPort: 1, DstPort: 2}).Serialize(ipA, ipB, nil))
		pos := int(bit) % (ipv4HeaderLen * 8)
		b[ethernetHeaderLen+pos/8] ^= 1 << (pos % 8)
		_, err := Decode(b, 0)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: full Ethernet/IP/TCP frames decode back to the same 5-tuple.
func TestQuickFullStackRoundTrip(t *testing.T) {
	f := func(sp, dp uint16, payload []byte) bool {
		frame := BuildTCPArena(nil, macA, macB, ipA, ipB, 1, &TCP{SrcPort: sp, DstPort: dp, Flags: FlagACK}, payload)
		p, err := Decode(frame, 0)
		if err != nil || p.TCP == nil {
			return false
		}
		return p.TCP.SrcPort == sp && p.TCP.DstPort == dp &&
			p.IP.Src == ipA && p.IP.Dst == ipB && bytes.Equal(p.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
