// Package capture is the testbed's tcpdump/WinDump equivalent: it taps a
// simulated NIC, records every frame with its virtual timestamp, computes
// the ground-truth network RTT (tNr − tNs of Eq. 1) by pairing request and
// response packets, and reads/writes the libpcap file format so captures
// can be inspected with real tools.
package capture

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/browsermetric/browsermetric/internal/netsim"
)

// Record is one captured frame. Data references the frame exactly as it
// crossed the wire and must be treated as read-only.
type Record struct {
	Time time.Duration
	Dir  netsim.Direction
	Data []byte
}

// Filter decides whether a decoded frame is kept (see ParseFilter).
type Filter func(p *netsim.Packet) bool

// Capture accumulates frames from a NIC tap.
type Capture struct {
	records []Record
	// eachPkt is the matching paths' decode scratch (each).
	eachPkt netsim.Packet
	// pairScratch backs MatchRTT's result between calls; pending tracks
	// open requests during one match pass.
	pairScratch []WirePair
	pending     []pendingReq
}

// pendingReq is an open request awaiting its response in MatchRTT. The
// handful of concurrently open exchanges makes a linear scan cheaper than
// a map, and the slice recycles across calls.
type pendingReq struct {
	local, remote uint16
	idx           int
}

// Attach installs the capture on nic and returns it. It records every
// frame; filter after decoding (Packets, ParseFilter).
func Attach(nic *netsim.NIC) *Capture {
	c := &Capture{}
	nic.AddTap(func(frame []byte, at time.Duration, dir netsim.Direction) {
		// Frames are immutable once handed to NIC.Send (each transmit
		// builds a fresh buffer and nothing writes to it afterwards), so
		// the record can retain the frame without a defensive copy.
		c.records = append(c.records, Record{Time: at, Dir: dir, Data: frame})
	})
	return c
}

// FromRecords wraps an existing record list (e.g. read back from a pcap
// file) so the matching and export methods can run over it.
func FromRecords(recs []Record) *Capture { return &Capture{records: recs} }

// Records returns the captured frames in order.
func (c *Capture) Records() []Record { return c.records }

// Reset clears the capture buffer (like restarting tcpdump between runs).
func (c *Capture) Reset() { c.records = c.records[:0] }

// Packets decodes all records, skipping undecodable ones.
func (c *Capture) Packets() []*netsim.Packet {
	out := make([]*netsim.Packet, 0, len(c.records))
	for _, r := range c.records {
		p, err := netsim.Decode(r.Data, r.Time)
		if err != nil {
			continue
		}
		out = append(out, p)
	}
	return out
}

// each decodes records into one reused Packet, calling fn per decodable
// frame. The matching paths use it to avoid materializing []*Packet.
func (c *Capture) each(fn func(p *netsim.Packet)) {
	pkt := &c.eachPkt
	for _, r := range c.records {
		if pkt.Parse(r.Data, r.Time) != nil {
			continue
		}
		fn(pkt)
	}
}

// WirePair is one request/response exchange observed on the wire.
type WirePair struct {
	SendAt time.Duration // tNs: first byte of the request left the host
	RecvAt time.Duration // tNr: the response arrived
	// Handshake reports whether a TCP SYN to the same server port was
	// observed between the previous pair and this one, i.e. the exchange
	// was preceded by a fresh connection establishment.
	Handshake bool
}

// RTT returns the network round-trip time of the exchange.
func (w WirePair) RTT() time.Duration { return w.RecvAt - w.SendAt }

// MatchRTT pairs outbound payload-carrying packets to serverPort with the
// next inbound payload packet from serverPort on the same connection,
// yielding the ground-truth RTT samples in capture order. This mirrors how
// the paper derives tN from WinDump/tcpdump traces: handshake and pure-ACK
// packets carry no payload and are excluded from pairing (but SYNs are
// noted so handshake-inflated browser measurements can be explained).
//
// The returned slice is scratch storage owned by the Capture: it is valid
// until the next MatchRTT call on the same Capture. Callers that need the
// pairs past that point must copy them out.
func (c *Capture) MatchRTT(serverPort uint16) []WirePair {
	out := c.pairScratch[:0]
	pending := c.pending[:0]
	sawSyn := false
	pkt := &c.eachPkt
	for _, r := range c.records {
		if pkt.Parse(r.Data, r.Time) != nil {
			continue
		}
		p := pkt
		var (
			srcPort, dstPort uint16
			payload          int
			syn              bool
		)
		switch {
		case p.TCP != nil:
			srcPort, dstPort, payload = p.TCP.SrcPort, p.TCP.DstPort, len(p.Payload)
			syn = p.TCP.Flags&netsim.FlagSYN != 0 && p.TCP.Flags&netsim.FlagACK == 0
		case p.UDP != nil:
			srcPort, dstPort, payload = p.UDP.SrcPort, p.UDP.DstPort, len(p.Payload)
		default:
			continue
		}
		if syn && dstPort == serverPort {
			sawSyn = true
			continue
		}
		if payload == 0 {
			continue
		}
		switch {
		case dstPort == serverPort: // outbound request
			open := false
			for _, pr := range pending {
				if pr.local == srcPort && pr.remote == dstPort {
					open = true // multi-packet request: keep the first packet's time
					break
				}
			}
			if open {
				continue
			}
			out = append(out, WirePair{SendAt: p.Time, Handshake: sawSyn})
			sawSyn = false
			pending = append(pending, pendingReq{local: srcPort, remote: dstPort, idx: len(out) - 1})
		case srcPort == serverPort: // inbound response
			for i, pr := range pending {
				if pr.local == dstPort && pr.remote == srcPort {
					out[pr.idx].RecvAt = p.Time
					pending = append(pending[:i], pending[i+1:]...)
					break
				}
			}
		}
	}
	c.pending = pending[:0]
	// Drop unanswered requests.
	complete := out[:0]
	for _, w := range out {
		if w.RecvAt != 0 {
			complete = append(complete, w)
		}
	}
	c.pairScratch = out[:0]
	return complete
}

// Transfer summarizes a bulk exchange with a server port: the request
// departure and the span and volume of the response (or echo) stream.
// It is the wire-level ground truth for throughput appraisal.
type Transfer struct {
	SendAt  time.Duration // first request byte left the host
	FirstAt time.Duration // first response byte arrived
	LastAt  time.Duration // last response byte arrived
	Bytes   int           // total response payload bytes
}

// Duration is the wire-level transfer time (request out to last byte in).
func (t Transfer) Duration() time.Duration { return t.LastAt - t.SendAt }

// BitsPerSecond is the wire-level round-trip throughput.
func (t Transfer) BitsPerSecond() float64 {
	d := t.Duration().Seconds()
	if d <= 0 {
		return 0
	}
	return float64(t.Bytes) * 8 / d
}

// MatchTransfer aggregates all payload traffic with serverPort into one
// Transfer: the first outbound payload packet starts the clock, and every
// inbound payload packet extends it. Use Reset between measurements.
func (c *Capture) MatchTransfer(serverPort uint16) (Transfer, bool) {
	var tr Transfer
	started := false
	c.each(func(p *netsim.Packet) {
		var srcPort, dstPort uint16
		switch {
		case p.TCP != nil:
			srcPort, dstPort = p.TCP.SrcPort, p.TCP.DstPort
		case p.UDP != nil:
			srcPort, dstPort = p.UDP.SrcPort, p.UDP.DstPort
		default:
			return
		}
		if len(p.Payload) == 0 {
			return
		}
		switch {
		case dstPort == serverPort:
			if !started {
				tr.SendAt = p.Time
				started = true
			}
		case srcPort == serverPort && started:
			if tr.Bytes == 0 {
				tr.FirstAt = p.Time
			}
			tr.LastAt = p.Time
			tr.Bytes += len(p.Payload)
		}
	})
	return tr, started && tr.Bytes > 0
}

// CountUnanswered returns, for UDP probe traffic to serverPort, how many
// outbound datagrams never saw a subsequent inbound datagram before the
// next probe went out — the wire-level loss count a capture-side observer
// would report.
func (c *Capture) CountUnanswered(serverPort uint16) (sent, lost int) {
	awaiting := false
	c.each(func(p *netsim.Packet) {
		if p.UDP == nil || len(p.Payload) == 0 {
			return
		}
		switch {
		case p.UDP.DstPort == serverPort:
			if awaiting {
				lost++
			}
			sent++
			awaiting = true
		case p.UDP.SrcPort == serverPort:
			awaiting = false
		}
	})
	if awaiting {
		lost++
	}
	return sent, lost
}

// --- libpcap file format ---

const (
	pcapMagicNano    = 0xa1b23c4d // nanosecond-resolution pcap
	pcapMagicMicro   = 0xa1b2c3d4
	linkTypeEthernet = 1
)

// ErrBadPcap reports an unreadable pcap stream.
var ErrBadPcap = errors.New("capture: bad pcap data")

// WriteTo emits the capture as a nanosecond-resolution pcap file.
func (c *Capture) WriteTo(w io.Writer) (int64, error) {
	var total int64
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:4], pcapMagicNano)
	binary.LittleEndian.PutUint16(hdr[4:6], 2) // version 2.4
	binary.LittleEndian.PutUint16(hdr[6:8], 4)
	binary.LittleEndian.PutUint32(hdr[16:20], 65535) // snaplen
	binary.LittleEndian.PutUint32(hdr[20:24], linkTypeEthernet)
	n, err := w.Write(hdr)
	total += int64(n)
	if err != nil {
		return total, err
	}
	rec := make([]byte, 16)
	for _, r := range c.records {
		sec := uint32(r.Time / time.Second)
		nsec := uint32(r.Time % time.Second)
		binary.LittleEndian.PutUint32(rec[0:4], sec)
		binary.LittleEndian.PutUint32(rec[4:8], nsec)
		binary.LittleEndian.PutUint32(rec[8:12], uint32(len(r.Data)))
		binary.LittleEndian.PutUint32(rec[12:16], uint32(len(r.Data)))
		if n, err = w.Write(rec); err != nil {
			return total + int64(n), err
		}
		total += int64(n)
		if n, err = w.Write(r.Data); err != nil {
			return total + int64(n), err
		}
		total += int64(n)
	}
	return total, nil
}

// ReadPcap parses a pcap stream written by WriteTo (or by libpcap with
// Ethernet link type, in either timestamp resolution).
func ReadPcap(r io.Reader) ([]Record, error) {
	hdr := make([]byte, 24)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("%w: global header: %v", ErrBadPcap, err)
	}
	magic := binary.LittleEndian.Uint32(hdr[0:4])
	var tsUnit time.Duration
	switch magic {
	case pcapMagicNano:
		tsUnit = time.Nanosecond
	case pcapMagicMicro:
		tsUnit = time.Microsecond
	default:
		return nil, fmt.Errorf("%w: magic %#08x", ErrBadPcap, magic)
	}
	if lt := binary.LittleEndian.Uint32(hdr[20:24]); lt != linkTypeEthernet {
		return nil, fmt.Errorf("%w: unsupported link type %d", ErrBadPcap, lt)
	}
	var out []Record
	rec := make([]byte, 16)
	for {
		if _, err := io.ReadFull(r, rec); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, fmt.Errorf("%w: record header: %v", ErrBadPcap, err)
		}
		sec := binary.LittleEndian.Uint32(rec[0:4])
		sub := binary.LittleEndian.Uint32(rec[4:8])
		caplen := binary.LittleEndian.Uint32(rec[8:12])
		if caplen > 1<<20 {
			return nil, fmt.Errorf("%w: caplen %d", ErrBadPcap, caplen)
		}
		data := make([]byte, caplen)
		if _, err := io.ReadFull(r, data); err != nil {
			return nil, fmt.Errorf("%w: truncated packet body: %v", ErrBadPcap, err)
		}
		ts := time.Duration(sec)*time.Second + time.Duration(sub)*tsUnit
		out = append(out, Record{Time: ts, Data: data})
	}
}
