package capture

import (
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/netsim"
)

func udpFrame(srcPort, dstPort uint16, payload []byte) []byte {
	src, dst, sm, dm := ipA, ipB, macA, macB
	if srcPort == 9001 { // server -> client direction in these tests
		src, dst, sm, dm = ipB, ipA, macB, macA
	}
	return netsim.BuildUDPArena(nil, sm, dm, src, dst, 1, &netsim.UDP{SrcPort: srcPort, DstPort: dstPort}, payload)
}

func TestMatchTransferAggregates(t *testing.T) {
	big := make([]byte, 1000)
	cap := FromRecords([]Record{
		{Time: 10 * time.Millisecond, Data: tcpFrame(49152, 80, netsim.FlagPSH|netsim.FlagACK, []byte("GET /download"))},
		{Time: 60 * time.Millisecond, Data: tcpFrame(80, 49152, netsim.FlagACK, big)},
		{Time: 61 * time.Millisecond, Data: tcpFrame(80, 49152, netsim.FlagACK, big)},
		{Time: 70 * time.Millisecond, Data: tcpFrame(80, 49152, netsim.FlagPSH|netsim.FlagACK, big[:500])},
	})
	tr, ok := cap.MatchTransfer(80)
	if !ok {
		t.Fatal("no transfer matched")
	}
	if tr.Bytes != 2500 {
		t.Fatalf("bytes = %d, want 2500", tr.Bytes)
	}
	if tr.SendAt != 10*time.Millisecond || tr.FirstAt != 60*time.Millisecond || tr.LastAt != 70*time.Millisecond {
		t.Fatalf("times = %v %v %v", tr.SendAt, tr.FirstAt, tr.LastAt)
	}
	if tr.Duration() != 60*time.Millisecond {
		t.Fatalf("duration = %v", tr.Duration())
	}
	wantBps := float64(2500*8) / 0.060
	if got := tr.BitsPerSecond(); got < wantBps*0.99 || got > wantBps*1.01 {
		t.Fatalf("throughput = %.0f, want ~%.0f", got, wantBps)
	}
}

func TestMatchTransferNoTraffic(t *testing.T) {
	cap := FromRecords(nil)
	if _, ok := cap.MatchTransfer(80); ok {
		t.Fatal("empty capture matched a transfer")
	}
	// Response without a request: not a transfer.
	cap2 := FromRecords([]Record{
		{Time: 1, Data: tcpFrame(80, 49152, netsim.FlagACK, []byte("orphan"))},
	})
	if _, ok := cap2.MatchTransfer(80); ok {
		t.Fatal("orphan response matched")
	}
}

func TestMatchTransferZeroDuration(t *testing.T) {
	tr := Transfer{}
	if tr.BitsPerSecond() != 0 {
		t.Fatal("zero transfer should report 0 bps")
	}
}

func TestCountUnanswered(t *testing.T) {
	cap := FromRecords([]Record{
		{Time: 1, Data: udpFrame(40000, 9001, []byte("p0"))},
		{Time: 2, Data: udpFrame(9001, 40000, []byte("p0"))}, // answered
		{Time: 3, Data: udpFrame(40000, 9001, []byte("p1"))}, // lost (next probe follows)
		{Time: 4, Data: udpFrame(40000, 9001, []byte("p2"))},
		{Time: 5, Data: udpFrame(9001, 40000, []byte("p2"))}, // answered
		{Time: 6, Data: udpFrame(40000, 9001, []byte("p3"))}, // lost (trailing)
	})
	sent, lost := cap.CountUnanswered(9001)
	if sent != 4 || lost != 2 {
		t.Fatalf("sent=%d lost=%d, want 4/2", sent, lost)
	}
}

func TestCountUnansweredIgnoresTCP(t *testing.T) {
	cap := FromRecords([]Record{
		{Time: 1, Data: tcpFrame(49152, 9001, netsim.FlagPSH|netsim.FlagACK, []byte("tcp"))},
	})
	sent, lost := cap.CountUnanswered(9001)
	if sent != 0 || lost != 0 {
		t.Fatalf("TCP counted as UDP probes: %d/%d", sent, lost)
	}
}

func TestPortFilterNonIP(t *testing.T) {
	arp := append(append(append([]byte{}, macB[:]...), macA[:]...), 0x08, 0x06, 0) // EtherType ARP
	p, err := netsim.Decode(arp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mustFilter(t, "port 80")(p) {
		t.Fatal("non-IP frame matched a port filter")
	}
	// UDP branch of the port filter.
	pu, _ := netsim.Decode(udpFrame(40000, 9001, []byte("x")), 0)
	if !mustFilter(t, "port 9001")(pu) {
		t.Fatal("udp port filter failed")
	}
}
