package methods

import (
	"reflect"
	"testing"

	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/netsim"
	"github.com/browsermetric/browsermetric/internal/testbed"
)

// TestStaleSocketTrafficSparesLaterRun runs a socket method twice on one
// Runner with no BeginRun between the runs, which stands for a run
// boundary that was not quiescent: both stacks still hold the first
// run's connection. While the second run's first probe is out, an echo
// and then an RST arrive on that earlier connection. Neither may reach
// the second run: its result must equal that of the same two runs left
// alone.
func TestStaleSocketTrafficSparesLaterRun(t *testing.T) {
	prof := browser.Lookup(browser.Chrome, browser.Ubuntu)
	for _, kind := range []Kind{JavaTCP, WebSocket} {
		t.Run(Get(kind).Name, func(t *testing.T) {
			twoRuns := func(inject bool) (Result, error) {
				tb := testbed.New(testbed.Config{Seed: 11})
				r := &Runner{TB: tb, Profile: prof, Timing: browser.NanoTime}
				first, err := r.Run(kind)
				if err != nil {
					t.Fatal(err)
				}
				if inject {
					// The Runner drops its conn pointers when a drive ends,
					// so the first run's tuple comes from the capture.
					port := first.ServerPort
					local := lastClientPort(t, tb, port)
					orig := r.ss.afterSend
					r.ss.afterSend = func() {
						orig()
						r.ss.afterSend = orig
						tb.Sim.Schedule(0, func() { injectStale(t, tb, local, port, kind) })
					}
				}
				res, err := r.Run(kind)
				if err != nil {
					return Result{}, err
				}
				return *res, nil
			}
			want, err := twoRuns(false)
			if err != nil {
				t.Fatal(err)
			}
			got, err := twoRuns(true)
			if err != nil {
				t.Fatalf("stale traffic on the first run's connection failed the second: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("stale traffic on the first run's connection moved the second run:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// lastClientPort returns the client port of the last segment the client
// sent to the server's port in the capture.
func lastClientPort(t *testing.T, tb *testbed.Testbed, port uint16) uint16 {
	t.Helper()
	local := uint16(0)
	for _, p := range tb.Cap.Packets() {
		if p.TCP != nil && p.IP.Src == tb.ClientNIC.Addr && p.TCP.DstPort == port {
			local = p.TCP.SrcPort
		}
	}
	if local == 0 {
		t.Fatalf("no client segment to port %d in the capture", port)
	}
	return local
}

// injectStale hands the client an echo and then an RST from the server on
// the tuple (local, remote), as if they had been delayed in the network.
// The echo carries the next sequence number the client expects on that
// tuple, read from the last segment the client sent on it, so the client
// delivers it in order.
func injectStale(t *testing.T, tb *testbed.Testbed, local, remote uint16, kind Kind) {
	t.Helper()
	var seq uint32
	found := false
	for _, p := range tb.Cap.Packets() {
		if p.TCP != nil && p.IP.Src == tb.ClientNIC.Addr && p.TCP.SrcPort == local {
			seq, found = p.TCP.Ack, true
		}
	}
	if !found {
		t.Fatalf("no client segment from port %d in the capture", local)
	}
	payload := []byte("stale-echo")
	if kind == WebSocket {
		// An unmasked server-to-client binary frame.
		payload = append([]byte{0x82, byte(len(payload))}, payload...)
	}
	for _, seg := range []struct {
		flags   byte
		payload []byte
	}{
		{netsim.FlagPSH | netsim.FlagACK, payload},
		{netsim.FlagRST | netsim.FlagACK, nil},
	} {
		hdr := &netsim.TCP{SrcPort: remote, DstPort: local, Seq: seq, Flags: seg.flags}
		tb.ClientNIC.Receive(nil, netsim.BuildTCPArena(nil, tb.ServerNIC.MAC, tb.ClientNIC.MAC,
			tb.ServerAddr, tb.ClientNIC.Addr, 0, hdr, seg.payload))
		seq += uint32(len(seg.payload))
	}
}
