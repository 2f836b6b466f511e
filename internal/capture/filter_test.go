package capture

import (
	"testing"
	"testing/quick"

	"github.com/browsermetric/browsermetric/internal/netsim"
)

func mustFilter(t *testing.T, expr string) Filter {
	t.Helper()
	f, err := ParseFilter(expr)
	if err != nil {
		t.Fatalf("ParseFilter(%q): %v", expr, err)
	}
	return f
}

func tcpPkt(t *testing.T, src, dst uint16) *netsim.Packet {
	t.Helper()
	frame := tcpFrame(src, dst, netsim.FlagACK, []byte("x"))
	p, err := netsim.Decode(frame, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func udpPkt(t *testing.T, src, dst uint16) *netsim.Packet {
	t.Helper()
	frame := netsim.BuildUDPArena(nil, macA, macB, ipA, ipB, 1, &netsim.UDP{SrcPort: src, DstPort: dst}, []byte("y"))
	p, err := netsim.Decode(frame, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFilterProto(t *testing.T) {
	tcp := mustFilter(t, "tcp")
	udp := mustFilter(t, "udp")
	ip := mustFilter(t, "ip")
	pt := tcpPkt(t, 1, 2)
	pu := udpPkt(t, 3, 4)
	if !tcp(pt) || tcp(pu) {
		t.Fatal("tcp primitive wrong")
	}
	if !udp(pu) || udp(pt) {
		t.Fatal("udp primitive wrong")
	}
	if !ip(pt) || !ip(pu) {
		t.Fatal("ip primitive wrong")
	}
}

func TestFilterPort(t *testing.T) {
	f := mustFilter(t, "port 80")
	if !f(tcpPkt(t, 49152, 80)) || !f(tcpPkt(t, 80, 49152)) {
		t.Fatal("port should match either direction")
	}
	if f(tcpPkt(t, 1, 2)) {
		t.Fatal("port matched wrong packet")
	}
	src := mustFilter(t, "src port 80")
	if src(tcpPkt(t, 49152, 80)) || !src(tcpPkt(t, 80, 49152)) {
		t.Fatal("src port direction wrong")
	}
	dst := mustFilter(t, "dst port 80")
	if !dst(tcpPkt(t, 49152, 80)) || dst(tcpPkt(t, 80, 49152)) {
		t.Fatal("dst port direction wrong")
	}
}

func TestFilterPortAppliesToUDP(t *testing.T) {
	f := mustFilter(t, "port 9001")
	if !f(udpPkt(t, 40000, 9001)) {
		t.Fatal("udp port match failed")
	}
}

func TestFilterHost(t *testing.T) {
	f := mustFilter(t, "host 10.0.0.1")
	if !f(tcpPkt(t, 1, 2)) { // ipA = 10.0.0.1 in this test file
		t.Fatal("host match failed")
	}
	if mustFilter(t, "host 9.9.9.9")(tcpPkt(t, 1, 2)) {
		t.Fatal("host matched wrong address")
	}
	if !mustFilter(t, "src host 10.0.0.1")(tcpPkt(t, 1, 2)) {
		t.Fatal("src host failed")
	}
	if mustFilter(t, "dst host 10.0.0.1")(tcpPkt(t, 1, 2)) {
		t.Fatal("dst host matched the source")
	}
}

func TestFilterBoolean(t *testing.T) {
	f := mustFilter(t, "tcp and port 80")
	if !f(tcpPkt(t, 5, 80)) || f(udpPkt(t, 5, 80)) {
		t.Fatal("and broken")
	}
	g := mustFilter(t, "port 80 or port 8080")
	if !g(tcpPkt(t, 1, 8080)) || g(tcpPkt(t, 1, 443)) {
		t.Fatal("or broken")
	}
	n := mustFilter(t, "not port 80")
	if n(tcpPkt(t, 1, 80)) || !n(tcpPkt(t, 1, 443)) {
		t.Fatal("not broken")
	}
}

func TestFilterPrecedenceAndParens(t *testing.T) {
	// "a or b and c" parses as "a or (b and c)" per libpcap.
	f := mustFilter(t, "port 53 or udp and port 9001")
	if !f(tcpPkt(t, 1, 53)) {
		t.Fatal("left or-arm failed")
	}
	if f(tcpPkt(t, 1, 9001)) {
		t.Fatal("tcp 9001 should not match (udp and port 9001)")
	}
	if !f(udpPkt(t, 1, 9001)) {
		t.Fatal("udp 9001 should match")
	}
	g := mustFilter(t, "(port 53 or udp) and port 9001")
	if g(tcpPkt(t, 1, 53)) {
		t.Fatal("parenthesized group ignored")
	}
}

func TestFilterErrors(t *testing.T) {
	for _, expr := range []string{
		"", "bogus", "port", "port abc", "port 99999",
		"src", "src bogus 1", "(tcp", "tcp )", "not", "tcp and",
	} {
		if _, err := ParseFilter(expr); err == nil {
			t.Errorf("ParseFilter(%q) succeeded, want error", expr)
		}
	}
}

func TestFilterCaseInsensitive(t *testing.T) {
	f := mustFilter(t, "TCP AND Port 80")
	if !f(tcpPkt(t, 1, 80)) {
		t.Fatal("case-insensitive parse failed")
	}
}

func TestFilterWithCapture(t *testing.T) {
	cap := directCapture(
		Record{Time: 1, Data: tcpFrame(49152, 80, netsim.FlagPSH|netsim.FlagACK, []byte("a"))},
		Record{Time: 2, Data: tcpFrame(49152, 443, netsim.FlagPSH|netsim.FlagACK, []byte("b"))},
	)
	// Post-hoc filtering through FromRecords + manual evaluation.
	f := mustFilter(t, "dst port 80")
	kept := 0
	for _, p := range cap.Packets() {
		if f(p) {
			kept++
		}
	}
	if kept != 1 {
		t.Fatalf("kept = %d, want 1", kept)
	}
}

// Property: "not not X" is equivalent to X for arbitrary port pairs.
func TestQuickFilterDoubleNegation(t *testing.T) {
	f := mustFilter(t, "port 80")
	nn := mustFilter(t, "not not port 80")
	fn := func(src, dst uint16) bool {
		p := tcpPkt(t, src, dst)
		return f(p) == nn(p)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: De Morgan — not (A or B) == (not A) and (not B).
func TestQuickFilterDeMorgan(t *testing.T) {
	lhs := mustFilter(t, "not (tcp or port 80)")
	rhs := mustFilter(t, "not tcp and not port 80")
	fn := func(src, dst uint16, useUDP bool) bool {
		var p *netsim.Packet
		if useUDP {
			p = udpPkt(t, src, dst)
		} else {
			p = tcpPkt(t, src, dst)
		}
		return lhs(p) == rhs(p)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
