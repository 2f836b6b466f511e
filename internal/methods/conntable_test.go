package methods

import (
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/faults"
	"github.com/browsermetric/browsermetric/internal/netsim"
	"github.com/browsermetric/browsermetric/internal/testbed"
)

// TestConnTablesBoundedByQuietBoundary runs 1000-run cells of a method
// that dials fresh HTTP connections every round (Opera's Flash POST) and
// of a socket method with a policy connection (Flash TCP) on every fault
// profile, the way core's run loop does. After every BeginRun, each
// stack's connection table must be empty if the boundary was quiescent
// and otherwise hold no more connections than the runs since the last
// quiescent boundary opened. A run that fails (an abort under
// burstywifi) is counted like any other.
func TestConnTablesBoundedByQuietBoundary(t *testing.T) {
	prof := browser.Lookup(browser.Opera, browser.Windows)
	for _, fp := range faults.Profiles() {
		for _, kind := range []Kind{FlashPost, FlashTCP} {
			tb := testbed.New(testbed.Config{Faults: fp, Seed: 1})
			r := &Runner{TB: tb, Profile: prof}
			opened, quiet := 0, 0 // dials since the last quiet boundary; quiet boundaries
			for run := 0; run < 1000; run++ {
				if tb.Client.Quiescent() && tb.Server.Quiescent() {
					opened = 0
					quiet++
				}
				tb.BeginRun()
				if c, s := tb.Client.LiveConns(), tb.Server.LiveConns(); c > opened || s > opened {
					t.Fatalf("%s %s run %d: tables hold %d client and %d server conns, but only %d were opened since the last quiet boundary",
						fp, Get(kind).Name, run, c, s, opened)
				}
				_, _ = r.Run(kind)
				opened += dials(tb)
				tb.Advance(10 * time.Second)
			}
			if quiet < 900 {
				t.Errorf("%s %s: %d of 1000 boundaries were quiescent", fp, Get(kind).Name, quiet)
			}
		}
	}
}

// dials counts the connections the client opened during the captured
// run: distinct source ports of its SYNs.
func dials(tb *testbed.Testbed) int {
	ports := map[uint16]bool{}
	for _, p := range tb.Cap.Packets() {
		if p.TCP != nil && p.IP.Src == tb.ClientNIC.Addr && p.TCP.Flags&(netsim.FlagSYN|netsim.FlagACK) == netsim.FlagSYN {
			ports[p.TCP.SrcPort] = true
		}
	}
	return len(ports)
}
