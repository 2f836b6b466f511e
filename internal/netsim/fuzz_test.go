package netsim

import (
	"bytes"
	"net/netip"
	"testing"
	"time"
)

// fuzzSeedFrames builds the seed corpus for FuzzPacketParse: valid TCP and
// UDP frames (which pass every checksum and exercise the full decode path),
// plus systematic truncations and single-byte corruptions of each. Checked
// in as a function rather than testdata files so the corpus regenerates
// with the frame builders and cannot rot.
func fuzzSeedFrames() [][]byte {
	srcMAC := MAC{0x02, 0, 0, 0, 0, 1}
	dstMAC := MAC{0x02, 0, 0, 0, 0, 2}
	src := netip.MustParseAddr("192.168.1.10")
	dst := netip.MustParseAddr("192.168.1.20")

	tcp := BuildTCPArena(nil, srcMAC, dstMAC, src, dst, 7,
		&TCP{SrcPort: 49152, DstPort: 80, Seq: 1000, Ack: 2000, Flags: FlagACK | FlagPSH, Window: 65535},
		[]byte("GET /probe HTTP/1.1\r\n\r\n"))
	syn := BuildTCPArena(nil, srcMAC, dstMAC, src, dst, 1,
		&TCP{SrcPort: 49153, DstPort: 80, Seq: 1, Flags: FlagSYN, Window: 65535}, nil)
	udp := BuildUDPArena(nil, srcMAC, dstMAC, src, dst, 9,
		&UDP{SrcPort: 40000, DstPort: 9001}, []byte("probe-10-1"))

	seeds := [][]byte{nil, {0}, tcp, syn, udp}
	for _, f := range [][]byte{tcp, udp} {
		for _, n := range []int{1, 13, 14, 33, 34, len(f) - 1} {
			if n >= 0 && n <= len(f) {
				seeds = append(seeds, append([]byte(nil), f[:n]...))
			}
		}
		for _, i := range []int{12, 14, 23, 34, len(f) - 1} {
			m := append([]byte(nil), f...)
			m[i] ^= 0xff
			seeds = append(seeds, m)
		}
	}
	return seeds
}

// checkParse runs the Packet.Parse invariants on one input: no panic (the
// fuzz harness catches those), a reused Packet gives the same outcome as a
// fresh one, and a successful parse yields consistent layer views into the
// original buffer.
func checkParse(t *testing.T, data []byte) {
	t.Helper()
	fresh := &Packet{}
	errFresh := fresh.Parse(data, time.Millisecond)

	// Reuse: a packet that previously parsed something else entirely must
	// reach the identical outcome (Parse resets all layer views).
	reused := &Packet{}
	_ = reused.Parse(fuzzReuseFrame, 0)
	errReused := reused.Parse(data, time.Millisecond)
	if (errFresh == nil) != (errReused == nil) {
		t.Fatalf("fresh Parse err=%v but reused Parse err=%v", errFresh, errReused)
	}

	if errFresh != nil {
		return
	}
	if fresh.Eth == nil {
		t.Fatal("successful parse without Ethernet layer")
	}
	if fresh.TCP != nil && fresh.UDP != nil {
		t.Fatal("packet cannot be both TCP and UDP")
	}
	if fresh.Payload != nil && len(data) > 0 {
		// The payload view must alias the input buffer, not a copy.
		end := len(data)
		if len(fresh.Payload) > end {
			t.Fatalf("payload longer than frame: %d > %d", len(fresh.Payload), end)
		}
	}
	if fresh.TCP != nil && reused.TCP != nil && *fresh.TCP != *reused.TCP {
		t.Fatalf("reused parse decoded different TCP header: %+v vs %+v", fresh.TCP, reused.TCP)
	}
	if !bytes.Equal(fresh.Payload, reused.Payload) {
		t.Fatal("reused parse decoded different payload")
	}
}

// fuzzReuseFrame is a valid frame used to dirty a Packet before re-parsing
// fuzz input into it.
var fuzzReuseFrame = BuildUDPArena(nil, MAC{0x02, 0, 0, 0, 0, 3}, MAC{0x02, 0, 0, 0, 0, 4},
	netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2"), 1,
	&UDP{SrcPort: 1, DstPort: 2}, []byte("dirty"))

func FuzzPacketParse(f *testing.F) {
	for _, s := range fuzzSeedFrames() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkParse(t, data)
	})
}

// TestPacketParseSeedCorpus replays the fuzz seed corpus as a plain test,
// so the regression coverage runs on every `go test` even without -fuzz.
func TestPacketParseSeedCorpus(t *testing.T) {
	for i, s := range fuzzSeedFrames() {
		s := s
		i := i
		t.Run(string(rune('a'+i%26))+"-seed", func(t *testing.T) {
			checkParse(t, s)
		})
	}
}

// TestPacketParseValidRoundTrip pins the happy path: the builder's frames
// must parse back to the headers they were built from.
func TestPacketParseValidRoundTrip(t *testing.T) {
	srcMAC := MAC{0x02, 0, 0, 0, 0, 1}
	dstMAC := MAC{0x02, 0, 0, 0, 0, 2}
	src := netip.MustParseAddr("192.168.1.10")
	dst := netip.MustParseAddr("192.168.1.20")
	hdr := &TCP{SrcPort: 49152, DstPort: 80, Seq: 42, Ack: 7, Flags: FlagACK, Window: 512}
	frame := BuildTCPArena(nil, srcMAC, dstMAC, src, dst, 3, hdr, []byte("xyz"))
	p, err := Decode(frame, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if p.TCP == nil || *p.TCP != *hdr {
		t.Fatalf("TCP = %+v, want %+v", p.TCP, hdr)
	}
	if string(p.Payload) != "xyz" {
		t.Fatalf("payload = %q", p.Payload)
	}
}
