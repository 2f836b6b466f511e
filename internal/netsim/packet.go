package netsim

import (
	"errors"
	"fmt"
	"net/netip"
	"time"

	"github.com/browsermetric/browsermetric/internal/arena"
)

// Packet is a fully decoded frame as seen on a link, together with the
// virtual capture timestamp assigned by the NIC that observed it.
//
// The layer pointers aim into storage embedded in the Packet itself, so
// decoding with Parse allocates nothing beyond the Packet. A Packet may be
// reused across frames by calling Parse again; the previous parse's layer
// views are overwritten.
type Packet struct {
	Time time.Duration // virtual time the frame passed the observation point
	Raw  []byte        // the frame bytes as transmitted

	Eth *Ethernet
	IP  *IPv4
	TCP *TCP // nil unless IP.Protocol == ProtoTCP
	UDP *UDP // nil unless IP.Protocol == ProtoUDP

	Payload []byte // transport payload (nil for non-IP frames)

	eth Ethernet
	ip  IPv4
	tcp TCP
	udp UDP
}

// Parse decodes raw as Ethernet/IPv4/{TCP,UDP} into p, reusing p's
// embedded header storage. Unknown upper layers leave the corresponding
// fields nil; only structural errors are returned.
func (p *Packet) Parse(raw []byte, at time.Duration) error {
	p.Time, p.Raw = at, raw
	p.Eth, p.IP, p.TCP, p.UDP, p.Payload = nil, nil, nil, nil, nil
	rest, err := p.eth.decode(raw)
	if err != nil {
		return err
	}
	p.Eth = &p.eth
	if p.eth.EtherType != EtherTypeIPv4 {
		return nil
	}
	rest, err = p.ip.decode(rest)
	if err != nil {
		return err
	}
	p.IP = &p.ip
	switch p.ip.Protocol {
	case ProtoTCP:
		payload, err := p.tcp.decode(p.ip.Src, p.ip.Dst, rest)
		if err != nil {
			return err
		}
		p.TCP = &p.tcp
		p.Payload = payload
	case ProtoUDP:
		payload, err := p.udp.decode(p.ip.Src, p.ip.Dst, rest)
		if err != nil {
			return err
		}
		p.UDP = &p.udp
		p.Payload = payload
	}
	return nil
}

// Decode parses raw as Ethernet/IPv4/{TCP,UDP} into a fresh Packet.
func Decode(raw []byte, at time.Duration) (*Packet, error) {
	p := &Packet{}
	if err := p.Parse(raw, at); err != nil {
		return nil, err
	}
	return p, nil
}

// String renders the packet one-line, tcpdump style.
func (p *Packet) String() string {
	switch {
	case p.TCP != nil:
		return fmt.Sprintf("%v IP %v.%d > %v.%d: Flags [%s], seq %d, ack %d, length %d",
			p.Time, p.IP.Src, p.TCP.SrcPort, p.IP.Dst, p.TCP.DstPort,
			p.TCP.FlagString(), p.TCP.Seq, p.TCP.Ack, len(p.Payload))
	case p.UDP != nil:
		return fmt.Sprintf("%v IP %v.%d > %v.%d: UDP, length %d",
			p.Time, p.IP.Src, p.UDP.SrcPort, p.IP.Dst, p.UDP.DstPort, len(p.Payload))
	case p.IP != nil:
		return fmt.Sprintf("%v IP %v > %v: proto %d", p.Time, p.IP.Src, p.IP.Dst, p.IP.Protocol)
	default:
		return fmt.Sprintf("%v %v > %v ethertype 0x%04x", p.Time, p.Eth.Src, p.Eth.Dst, p.Eth.EtherType)
	}
}

// MaxTCPPayload and MaxUDPPayload are the largest transport payloads one
// IPv4 datagram carries: its 16-bit total length also counts the IPv4 and
// transport headers.
const (
	MaxTCPPayload = 0xffff - ipv4HeaderLen - tcpHeaderLen
	MaxUDPPayload = 0xffff - ipv4HeaderLen - udpHeaderLen
)

// ErrPayloadTooLarge reports a payload that does not fit one IPv4 datagram.
var ErrPayloadTooLarge = errors.New("netsim: payload does not fit one IPv4 datagram")

// mustFit panics when an n-byte payload exceeds max: a larger one would
// wrap the 16-bit length fields into a frame every receiver drops.
func mustFit(proto string, n, max int) {
	if n > max {
		panic(fmt.Errorf("%w: %d-byte %s payload, limit %d", ErrPayloadTooLarge, n, proto, max))
	}
}

// BuildTCPArena assembles a complete Ethernet/IPv4/TCP frame in one
// allocation carved from an arena (nil arena falls back to the heap). The
// frame is valid until the arena's next Reset; every byte is written, so
// recycled slab memory needs no zeroing. A payload over MaxTCPPayload
// bytes panics with ErrPayloadTooLarge.
func BuildTCPArena(a *arena.Arena, srcMAC, dstMAC MAC, src, dst netip.Addr, ipID uint16, hdr *TCP, payload []byte) []byte {
	mustFit("tcp", len(payload), MaxTCPPayload)
	b := a.Bytes(ethernetHeaderLen + ipv4HeaderLen + tcpHeaderLen + len(payload))
	eth := Ethernet{Dst: dstMAC, Src: srcMAC, EtherType: EtherTypeIPv4}
	eth.put(b)
	seg := b[ethernetHeaderLen+ipv4HeaderLen:]
	copy(seg[tcpHeaderLen:], payload)
	hdr.put(seg, src, dst)
	ip := IPv4{ID: ipID, Protocol: ProtoTCP, Src: src, Dst: dst}
	ip.put(b[ethernetHeaderLen:], tcpHeaderLen+len(payload))
	return b
}

// BuildUDPArena is BuildTCPArena for an Ethernet/IPv4/UDP frame. A
// payload over MaxUDPPayload bytes panics with ErrPayloadTooLarge.
func BuildUDPArena(a *arena.Arena, srcMAC, dstMAC MAC, src, dst netip.Addr, ipID uint16, hdr *UDP, payload []byte) []byte {
	mustFit("udp", len(payload), MaxUDPPayload)
	b := a.Bytes(ethernetHeaderLen + ipv4HeaderLen + udpHeaderLen + len(payload))
	eth := Ethernet{Dst: dstMAC, Src: srcMAC, EtherType: EtherTypeIPv4}
	eth.put(b)
	seg := b[ethernetHeaderLen+ipv4HeaderLen:]
	copy(seg[udpHeaderLen:], payload)
	hdr.put(seg, src, dst)
	ip := IPv4{ID: ipID, Protocol: ProtoUDP, Src: src, Dst: dst}
	ip.put(b[ethernetHeaderLen:], udpHeaderLen+len(payload))
	return b
}
