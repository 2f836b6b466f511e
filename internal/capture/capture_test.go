package capture

import (
	"bytes"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"github.com/browsermetric/browsermetric/internal/eventsim"
	"github.com/browsermetric/browsermetric/internal/netsim"
)

var (
	macA = netsim.MAC{2, 0, 0, 0, 0, 1}
	macB = netsim.MAC{2, 0, 0, 0, 0, 2}
	ipA  = netip.MustParseAddr("10.0.0.1")
	ipB  = netip.MustParseAddr("10.0.0.2")
)

func tcpFrame(srcPort, dstPort uint16, flags byte, payload []byte) []byte {
	src, dst, sm, dm := ipA, ipB, macA, macB
	if srcPort == 80 { // crude direction flip for tests
		src, dst, sm, dm = ipB, ipA, macB, macA
	}
	return netsim.BuildTCPArena(nil, sm, dm, src, dst, 1, &netsim.TCP{SrcPort: srcPort, DstPort: dstPort, Flags: flags}, payload)
}

func newNIC(sim *eventsim.Simulator) *netsim.NIC {
	return netsim.NewNIC(sim, "eth0", macA, ipA)
}

func TestAttachRecordsBothDirections(t *testing.T) {
	sim := eventsim.New(1)
	nic := newNIC(sim)
	other := netsim.NewNIC(sim, "eth1", macB, ipB)
	link := netsim.NewLink(sim, 0, time.Millisecond)
	nic.Connect(link)
	other.Connect(link)
	other.SetHandler(func([]byte) {
		other.Send(tcpFrame(80, 49152, netsim.FlagACK|netsim.FlagPSH, []byte("resp")))
	})

	cap := Attach(nic)
	nic.Send(tcpFrame(49152, 80, netsim.FlagACK|netsim.FlagPSH, []byte("req")))
	sim.Run()

	recs := cap.Records()
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
	if recs[0].Dir != netsim.DirOut || recs[1].Dir != netsim.DirIn {
		t.Fatalf("directions = %v %v", recs[0].Dir, recs[1].Dir)
	}
	if recs[0].Time != 0 || recs[1].Time != 2*time.Millisecond {
		t.Fatalf("times = %v %v", recs[0].Time, recs[1].Time)
	}
}

func TestFilterByPort(t *testing.T) {
	sim := eventsim.New(2)
	nic := newNIC(sim)
	other := netsim.NewNIC(sim, "eth1", macB, ipB)
	link := netsim.NewLink(sim, 0, 0)
	nic.Connect(link)
	other.Connect(link)

	cap := Attach(nic)
	nic.Send(tcpFrame(49152, 80, netsim.FlagPSH|netsim.FlagACK, []byte("keep")))
	nic.Send(tcpFrame(49152, 443, netsim.FlagPSH|netsim.FlagACK, []byte("drop")))
	sim.Run()

	f := mustFilter(t, "port 80")
	kept := 0
	for _, p := range cap.Packets() {
		if f(p) {
			kept++
		}
	}
	if len(cap.Records()) != 2 || kept != 1 {
		t.Fatalf("records = %d, kept = %d; want 2 recorded, 1 kept by port 80", len(cap.Records()), kept)
	}
}

func TestReset(t *testing.T) {
	sim := eventsim.New(3)
	nic := newNIC(sim)
	other := netsim.NewNIC(sim, "eth1", macB, ipB)
	link := netsim.NewLink(sim, 0, 0)
	nic.Connect(link)
	other.Connect(link)
	cap := Attach(nic)
	nic.Send(tcpFrame(1, 2, netsim.FlagACK, nil))
	sim.Run()
	cap.Reset()
	if len(cap.Records()) != 0 {
		t.Fatal("Reset did not clear records")
	}
}

// directCapture builds a Capture and stuffs records without a network.
func directCapture(recs ...Record) *Capture {
	return &Capture{records: recs}
}

func TestMatchRTTSimpleExchange(t *testing.T) {
	cap := directCapture(
		Record{Time: 10 * time.Millisecond, Data: tcpFrame(49152, 80, netsim.FlagPSH|netsim.FlagACK, []byte("GET"))},
		Record{Time: 60 * time.Millisecond, Data: tcpFrame(80, 49152, netsim.FlagPSH|netsim.FlagACK, []byte("200"))},
	)
	pairs := cap.MatchRTT(80)
	if len(pairs) != 1 {
		t.Fatalf("pairs = %d, want 1", len(pairs))
	}
	if pairs[0].RTT() != 50*time.Millisecond {
		t.Fatalf("RTT = %v, want 50ms", pairs[0].RTT())
	}
	if pairs[0].Handshake {
		t.Fatal("no SYN was captured, Handshake should be false")
	}
}

func TestMatchRTTIgnoresAcksAndHandshake(t *testing.T) {
	cap := directCapture(
		Record{Time: 0, Data: tcpFrame(49152, 80, netsim.FlagSYN, nil)},
		Record{Time: 25 * time.Millisecond, Data: tcpFrame(80, 49152, netsim.FlagSYN|netsim.FlagACK, nil)},
		Record{Time: 50 * time.Millisecond, Data: tcpFrame(49152, 80, netsim.FlagACK, nil)},
		Record{Time: 51 * time.Millisecond, Data: tcpFrame(49152, 80, netsim.FlagPSH|netsim.FlagACK, []byte("req"))},
		Record{Time: 52 * time.Millisecond, Data: tcpFrame(80, 49152, netsim.FlagACK, nil)},
		Record{Time: 101 * time.Millisecond, Data: tcpFrame(80, 49152, netsim.FlagPSH|netsim.FlagACK, []byte("resp"))},
	)
	pairs := cap.MatchRTT(80)
	if len(pairs) != 1 {
		t.Fatalf("pairs = %d, want 1", len(pairs))
	}
	if pairs[0].RTT() != 50*time.Millisecond {
		t.Fatalf("RTT = %v, want 50ms (payload packets only)", pairs[0].RTT())
	}
	if !pairs[0].Handshake {
		t.Fatal("Handshake flag should be set: a SYN preceded the exchange")
	}
}

func TestMatchRTTTwoSequentialExchanges(t *testing.T) {
	cap := directCapture(
		Record{Time: 0, Data: tcpFrame(49152, 80, netsim.FlagSYN, nil)},
		Record{Time: 10 * time.Millisecond, Data: tcpFrame(49152, 80, netsim.FlagPSH|netsim.FlagACK, []byte("r1"))},
		Record{Time: 60 * time.Millisecond, Data: tcpFrame(80, 49152, netsim.FlagPSH|netsim.FlagACK, []byte("a1"))},
		Record{Time: 70 * time.Millisecond, Data: tcpFrame(49152, 80, netsim.FlagPSH|netsim.FlagACK, []byte("r2"))},
		Record{Time: 121 * time.Millisecond, Data: tcpFrame(80, 49152, netsim.FlagPSH|netsim.FlagACK, []byte("a2"))},
	)
	pairs := cap.MatchRTT(80)
	if len(pairs) != 2 {
		t.Fatalf("pairs = %d, want 2", len(pairs))
	}
	if pairs[0].RTT() != 50*time.Millisecond || pairs[1].RTT() != 51*time.Millisecond {
		t.Fatalf("RTTs = %v %v", pairs[0].RTT(), pairs[1].RTT())
	}
	if !pairs[0].Handshake || pairs[1].Handshake {
		t.Fatalf("handshake flags = %v %v, want true false", pairs[0].Handshake, pairs[1].Handshake)
	}
}

func TestMatchRTTUnansweredRequestDropped(t *testing.T) {
	cap := directCapture(
		Record{Time: 0, Data: tcpFrame(49152, 80, netsim.FlagPSH|netsim.FlagACK, []byte("lost"))},
	)
	if pairs := cap.MatchRTT(80); len(pairs) != 0 {
		t.Fatalf("pairs = %d, want 0", len(pairs))
	}
}

func TestMatchRTTMultiPacketRequestUsesFirst(t *testing.T) {
	cap := directCapture(
		Record{Time: 5 * time.Millisecond, Data: tcpFrame(49152, 80, netsim.FlagACK, []byte("part1"))},
		Record{Time: 6 * time.Millisecond, Data: tcpFrame(49152, 80, netsim.FlagPSH|netsim.FlagACK, []byte("part2"))},
		Record{Time: 55 * time.Millisecond, Data: tcpFrame(80, 49152, netsim.FlagPSH|netsim.FlagACK, []byte("resp"))},
	)
	pairs := cap.MatchRTT(80)
	if len(pairs) != 1 || pairs[0].SendAt != 5*time.Millisecond {
		t.Fatalf("pairs = %+v, want one pair anchored at first request packet", pairs)
	}
}

func TestMatchRTTUDP(t *testing.T) {
	req := netsim.BuildUDPArena(nil, macA, macB, ipA, ipB, 1, &netsim.UDP{SrcPort: 5000, DstPort: 7}, []byte("ping"))
	resp := netsim.BuildUDPArena(nil, macB, macA, ipB, ipA, 2, &netsim.UDP{SrcPort: 7, DstPort: 5000}, []byte("pong"))
	cap := directCapture(
		Record{Time: time.Millisecond, Data: req},
		Record{Time: 51 * time.Millisecond, Data: resp},
	)
	pairs := cap.MatchRTT(7)
	if len(pairs) != 1 || pairs[0].RTT() != 50*time.Millisecond {
		t.Fatalf("pairs = %+v", pairs)
	}
}

func TestPcapRoundTrip(t *testing.T) {
	cap := directCapture(
		Record{Time: 1500 * time.Millisecond, Data: tcpFrame(49152, 80, netsim.FlagSYN, nil)},
		Record{Time: 1550*time.Millisecond + 123*time.Nanosecond, Data: tcpFrame(80, 49152, netsim.FlagSYN|netsim.FlagACK, nil)},
	)
	var buf bytes.Buffer
	if _, err := cap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadPcap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
	for i := range recs {
		if recs[i].Time != cap.records[i].Time {
			t.Fatalf("record %d time = %v, want %v", i, recs[i].Time, cap.records[i].Time)
		}
		if !bytes.Equal(recs[i].Data, cap.records[i].Data) {
			t.Fatalf("record %d data mismatch", i)
		}
	}
	// Decoded packets must survive the round trip too.
	p, err := netsim.Decode(recs[0].Data, recs[0].Time)
	if err != nil || p.TCP == nil || p.TCP.Flags != netsim.FlagSYN {
		t.Fatalf("decoded packet = %+v, err %v", p, err)
	}
}

func TestPcapHeaderFields(t *testing.T) {
	cap := directCapture()
	var buf bytes.Buffer
	cap.WriteTo(&buf)
	b := buf.Bytes()
	if len(b) != 24 {
		t.Fatalf("empty capture file length = %d, want 24", len(b))
	}
	if b[0] != 0x4d || b[1] != 0x3c || b[2] != 0xb2 || b[3] != 0xa1 {
		t.Fatalf("magic bytes = % x", b[:4])
	}
}

func TestReadPcapRejectsGarbage(t *testing.T) {
	if _, err := ReadPcap(bytes.NewReader([]byte("not a pcap file at all....."))); err == nil {
		t.Fatal("expected error")
	}
	if _, err := ReadPcap(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected error for empty stream")
	}
}

func TestReadPcapTruncatedBody(t *testing.T) {
	cap := directCapture(Record{Time: 0, Data: tcpFrame(1, 2, netsim.FlagACK, nil)})
	var buf bytes.Buffer
	cap.WriteTo(&buf)
	b := buf.Bytes()
	if _, err := ReadPcap(bytes.NewReader(b[:len(b)-5])); err == nil {
		t.Fatal("expected error for truncated packet body")
	}
}

// Property: pcap write/read round-trips arbitrary record sets.
func TestQuickPcapRoundTrip(t *testing.T) {
	f := func(times []uint32, payload []byte) bool {
		c := &Capture{}
		for _, ti := range times {
			c.records = append(c.records, Record{
				Time: time.Duration(ti) * time.Microsecond,
				Data: tcpFrame(49152, 80, netsim.FlagACK, payload),
			})
		}
		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			return false
		}
		recs, err := ReadPcap(&buf)
		if err != nil || len(recs) != len(c.records) {
			return false
		}
		for i := range recs {
			if recs[i].Time != c.records[i].Time || !bytes.Equal(recs[i].Data, c.records[i].Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: MatchRTT never produces negative RTTs and never more pairs
// than request packets.
func TestQuickMatchRTTSanity(t *testing.T) {
	f := func(gaps []uint16) bool {
		c := &Capture{}
		var now time.Duration
		requests := 0
		for i, g := range gaps {
			now += time.Duration(g) * time.Microsecond
			if i%2 == 0 {
				c.records = append(c.records, Record{Time: now, Data: tcpFrame(49152, 80, netsim.FlagPSH|netsim.FlagACK, []byte("q"))})
				requests++
			} else {
				c.records = append(c.records, Record{Time: now, Data: tcpFrame(80, 49152, netsim.FlagPSH|netsim.FlagACK, []byte("a"))})
			}
		}
		pairs := c.MatchRTT(80)
		if len(pairs) > requests {
			return false
		}
		for _, p := range pairs {
			if p.RTT() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
