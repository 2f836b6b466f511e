package netsim

import (
	"net/netip"
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/eventsim"
)

// buildPair wires nicA <-> switch <-> nicB over 100 Mbps links.
func buildPair(sim *eventsim.Simulator, prop, fwd time.Duration) (*NIC, *NIC) {
	a := NewNIC(sim, "eth0", macA, ipA)
	b := NewNIC(sim, "eth0", macB, ipB)
	sw := NewSwitch(sim, fwd)
	la := NewLink(sim, 100_000_000, prop)
	lb := NewLink(sim, 100_000_000, prop)
	a.Connect(la)
	sw.Connect(la)
	b.Connect(lb)
	sw.Connect(lb)
	return a, b
}

func TestLinkDelivery(t *testing.T) {
	sim := eventsim.New(1)
	a := NewNIC(sim, "a", macA, ipA)
	b := NewNIC(sim, "b", macB, ipB)
	l := NewLink(sim, 100_000_000, 10*time.Microsecond)
	a.Connect(l)
	b.Connect(l)

	var gotAt time.Duration
	var got []byte
	b.SetHandler(func(f []byte) { gotAt = sim.Now(); got = f })

	frame := make([]byte, 1250) // 10000 bits -> 100us at 100 Mbps
	a.Send(frame)
	sim.Run()

	want := 100*time.Microsecond + 10*time.Microsecond
	if gotAt != want {
		t.Fatalf("delivered at %v, want %v", gotAt, want)
	}
	if len(got) != 1250 {
		t.Fatalf("frame length = %d", len(got))
	}
}

func TestLinkSerializationQueuing(t *testing.T) {
	sim := eventsim.New(1)
	a := NewNIC(sim, "a", macA, ipA)
	b := NewNIC(sim, "b", macB, ipB)
	l := NewLink(sim, 100_000_000, 0)
	a.Connect(l)
	b.Connect(l)

	var arrivals []time.Duration
	b.SetHandler(func([]byte) { arrivals = append(arrivals, sim.Now()) })

	// Two back-to-back 1250-byte frames: second must queue behind first.
	a.Send(make([]byte, 1250))
	a.Send(make([]byte, 1250))
	sim.Run()

	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	if arrivals[0] != 100*time.Microsecond || arrivals[1] != 200*time.Microsecond {
		t.Fatalf("arrivals = %v, want [100us 200us]", arrivals)
	}
}

func TestLinkInfiniteBandwidth(t *testing.T) {
	sim := eventsim.New(1)
	a := NewNIC(sim, "a", macA, ipA)
	b := NewNIC(sim, "b", macB, ipB)
	l := NewLink(sim, 0, time.Millisecond)
	a.Connect(l)
	b.Connect(l)
	var at time.Duration
	b.SetHandler(func([]byte) { at = sim.Now() })
	a.Send(make([]byte, 1_000_000))
	sim.Run()
	if at != time.Millisecond {
		t.Fatalf("delivered at %v, want 1ms (no serialization delay)", at)
	}
}

func TestLinkFullDuplex(t *testing.T) {
	sim := eventsim.New(1)
	a := NewNIC(sim, "a", macA, ipA)
	b := NewNIC(sim, "b", macB, ipB)
	l := NewLink(sim, 100_000_000, 0)
	a.Connect(l)
	b.Connect(l)
	var atA, atB time.Duration
	a.SetHandler(func([]byte) { atA = sim.Now() })
	b.SetHandler(func([]byte) { atB = sim.Now() })
	// Simultaneous sends in both directions must not queue behind each other.
	a.Send(make([]byte, 1250))
	b.Send(make([]byte, 1250))
	sim.Run()
	if atA != 100*time.Microsecond || atB != 100*time.Microsecond {
		t.Fatalf("full duplex broken: a<-%v b<-%v", atA, atB)
	}
}

func TestSwitchFloodsThenLearns(t *testing.T) {
	sim := eventsim.New(1)
	// Three NICs on one switch.
	a := NewNIC(sim, "a", macA, ipA)
	b := NewNIC(sim, "b", macB, ipB)
	macC := MAC{0x02, 0, 0, 0, 0, 0x0c}
	c := NewNIC(sim, "c", macC, netip.MustParseAddr("192.168.1.30"))
	sw := NewSwitch(sim, 0)
	for _, n := range []*NIC{a, b, c} {
		l := NewLink(sim, 0, 0)
		n.Connect(l)
		sw.Connect(l)
	}
	bGot, cGot := 0, 0
	b.SetHandler(func([]byte) { bGot++ })
	c.SetHandler(func([]byte) { cGot++ })

	// Unknown destination: floods to both b and c.
	eth := &Ethernet{Dst: macB, Src: macA, EtherType: EtherTypeIPv4}
	a.Send(eth.Serialize(nil))
	sim.Run()
	if bGot != 1 || cGot != 1 {
		t.Fatalf("flood: b=%d c=%d, want 1,1", bGot, cGot)
	}

	// b replies; switch learns macB and macA. Next a->b frame is unicast.
	reply := &Ethernet{Dst: macA, Src: macB, EtherType: EtherTypeIPv4}
	b.Send(reply.Serialize(nil))
	sim.Run()
	a.Send(eth.Serialize(nil))
	sim.Run()
	if bGot != 2 || cGot != 1 {
		t.Fatalf("learned: b=%d c=%d, want 2,1", bGot, cGot)
	}
}

// starOfThree wires three NICs to one switch over instant links and
// counts the frames each receives.
func starOfThree(sim *eventsim.Simulator) (nics [3]*NIC, got *[3]int) {
	got = new([3]int)
	macs := [3]MAC{macA, macB, {0x02, 0, 0, 0, 0, 0x0c}}
	sw := NewSwitch(sim, 0)
	for i := range nics {
		nics[i] = NewNIC(sim, string(rune('a'+i)), macs[i], ipA)
		l := NewLink(sim, 0, 0)
		nics[i].Connect(l)
		sw.Connect(l)
		nics[i].SetHandler(func([]byte) { got[i]++ })
	}
	return nics, got
}

// sendEth sends an empty Ethernet frame from src to dst and runs it out.
func sendEth(sim *eventsim.Simulator, from *NIC, src, dst MAC) {
	from.Send((&Ethernet{Dst: dst, Src: src, EtherType: EtherTypeIPv4}).Serialize(nil))
	sim.Run()
}

func TestSwitchRelearnsMovedMAC(t *testing.T) {
	sim := eventsim.New(1)
	nics, got := starOfThree(sim)
	a, b, c := nics[0], nics[1], nics[2]
	sendEth(sim, b, macB, macA) // learns macB on b's port; macA unknown: floods to a and c
	sendEth(sim, a, macA, macB) // unicast to b
	if *got != [3]int{1, 1, 1} {
		t.Fatalf("before the move: got %v, want [1 1 1]", *got)
	}
	sendEth(sim, c, macB, macA) // macB now shows up on c's port
	sendEth(sim, a, macA, macB) // and frames for it follow it there
	if *got != [3]int{2, 1, 2} {
		t.Fatalf("after the move: got %v, want [2 1 2]", *got)
	}
}

func TestSwitchFloodsBroadcastLearnedAsSource(t *testing.T) {
	sim := eventsim.New(1)
	nics, got := starOfThree(sim)
	a, b := nics[0], nics[1]
	sendEth(sim, a, Broadcast, macB) // the switch now has Broadcast on a's port
	*got = [3]int{}
	sendEth(sim, b, macB, Broadcast)
	if *got != [3]int{1, 0, 1} {
		t.Fatalf("broadcast from b: got %v, want [1 0 1]", *got)
	}
	sendEth(sim, a, macA, Broadcast) // even from the port Broadcast was seen on
	if *got != [3]int{1, 1, 2} {
		t.Fatalf("broadcast from a: got %v, want [1 1 2]", *got)
	}
}

func TestSwitchForwardingDelay(t *testing.T) {
	sim := eventsim.New(1)
	a, b := buildPair(sim, 0, 5*time.Microsecond)
	var at time.Duration
	b.SetHandler(func([]byte) { at = sim.Now() })
	frame := BuildTCPArena(nil, macA, macB, ipA, ipB, 1, &TCP{SrcPort: 1, DstPort: 2, Flags: FlagSYN}, nil)
	a.Send(frame)
	sim.Run()
	// two link serializations (54B frame => 4.32us each) + 5us switch delay
	tx := time.Duration(int64(len(frame)) * 8 * int64(time.Second) / 100_000_000)
	want := 2*tx + 5*time.Microsecond
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestSwitchDropsRuntFrames(t *testing.T) {
	sim := eventsim.New(1)
	a, b := buildPair(sim, 0, 0)
	got := 0
	b.SetHandler(func([]byte) { got++ })
	a.Send([]byte{1, 2, 3}) // runt: shorter than an Ethernet header
	sim.Run()
	if got != 0 {
		t.Fatalf("runt frame was forwarded")
	}
}

func TestTapsSeeBothDirections(t *testing.T) {
	sim := eventsim.New(1)
	a, b := buildPair(sim, 0, 0)
	var dirs []Direction
	a.AddTap(func(_ []byte, _ time.Duration, d Direction) { dirs = append(dirs, d) })
	b.SetHandler(func(f []byte) {
		b.Send(BuildTCPArena(nil, macB, macA, ipB, ipA, 1, &TCP{SrcPort: 2, DstPort: 1, Flags: FlagACK}, nil))
	})
	a.Send(BuildTCPArena(nil, macA, macB, ipA, ipB, 1, &TCP{SrcPort: 1, DstPort: 2, Flags: FlagSYN}, nil))
	sim.Run()
	if len(dirs) != 2 || dirs[0] != DirOut || dirs[1] != DirIn {
		t.Fatalf("tap directions = %v, want [out in]", dirs)
	}
}

func TestTapTimestampBeforeWireDelay(t *testing.T) {
	sim := eventsim.New(1)
	a, _ := buildPair(sim, time.Millisecond, time.Millisecond)
	var outAt time.Duration = -1
	a.AddTap(func(_ []byte, at time.Duration, d Direction) {
		if d == DirOut {
			outAt = at
		}
	})
	sim.Advance(7 * time.Millisecond)
	a.Send(BuildTCPArena(nil, macA, macB, ipA, ipB, 1, &TCP{SrcPort: 1, DstPort: 2, Flags: FlagSYN}, nil))
	sim.Run()
	if outAt != 7*time.Millisecond {
		t.Fatalf("out tap at %v, want 7ms (capture stamps at send, not arrival)", outAt)
	}
}

func TestDirectionString(t *testing.T) {
	if DirOut.String() != "out" || DirIn.String() != "in" {
		t.Fatal("Direction.String broken")
	}
}

func TestSendOnDisconnectedNICPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sim := eventsim.New(1)
	NewNIC(sim, "x", macA, ipA).Send([]byte{1})
}

func TestLinkThirdAttachPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sim := eventsim.New(1)
	l := NewLink(sim, 0, 0)
	l.Attach(NewNIC(sim, "1", macA, ipA))
	l.Attach(NewNIC(sim, "2", macB, ipB))
	l.Attach(NewNIC(sim, "3", MAC{}, ipA))
}
