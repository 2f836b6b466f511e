package core

import (
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/methods"
	"github.com/browsermetric/browsermetric/internal/stats"
	"github.com/browsermetric/browsermetric/internal/testbed"
)

// TestCrossTrafficCreatesWireJitter verifies the control the paper
// applied: without cross traffic the wire RTT is essentially constant;
// with heavy cross traffic the capture sees real network jitter that a
// browser tool cannot tell apart from its own overhead variation.
func TestCrossTrafficCreatesWireJitter(t *testing.T) {
	run := func(withTraffic bool) (wireJitter float64) {
		tb := testbed.New(testbed.Config{Seed: 61})
		if withTraffic {
			// 1500-byte datagrams at 4000/s ≈ 48 Mbit/s on a 100 Mbit/s
			// link: substantial queueing.
			tb.StartCrossTraffic(4000, 1500)
		}
		r := &methods.Runner{TB: tb, Profile: browser.Lookup(browser.Chrome, browser.Ubuntu), Timing: browser.NanoTime}
		tb.Cap.Reset()
		train, err := r.Drive(methods.JavaTCP, methods.Train(20))
		if err != nil {
			t.Fatal(err)
		}
		pairs := tb.Cap.MatchRTT(train.ServerPort)
		var rtts []float64
		for _, p := range pairs {
			rtts = append(rtts, stats.Ms(p.RTT()))
		}
		if len(rtts) < 2 {
			t.Fatalf("only %d wire pairs", len(rtts))
		}
		var sum float64
		for i := 1; i < len(rtts); i++ {
			d := rtts[i] - rtts[i-1]
			if d < 0 {
				d = -d
			}
			sum += d
		}
		return sum / float64(len(rtts)-1)
	}

	clean := run(false)
	loaded := run(true)
	if clean > 0.05 {
		t.Fatalf("clean testbed wire jitter = %.4f ms, want ~0", clean)
	}
	if loaded < 5*clean+0.05 {
		t.Fatalf("cross traffic wire jitter = %.4f ms, want clearly above clean %.4f", loaded, clean)
	}
}

func TestCrossTrafficDoesNotBreakMeasurement(t *testing.T) {
	// Probes still complete and Eq. 1 still holds under contention.
	tb := testbed.New(testbed.Config{Seed: 62})
	tb.StartCrossTraffic(2000, 1500)
	r := &methods.Runner{TB: tb, Profile: browser.Lookup(browser.Firefox, browser.Ubuntu), Timing: browser.NanoTime}
	tb.Cap.Reset()
	res, err := r.Run(methods.WebSocket)
	if err != nil {
		t.Fatal(err)
	}
	pairs := tb.Cap.MatchRTT(res.ServerPort)
	if len(pairs) < methods.Rounds {
		t.Fatalf("pairs = %d", len(pairs))
	}
	pairs = pairs[len(pairs)-methods.Rounds:]
	for round := 1; round <= methods.Rounds; round++ {
		ov := res.BrowserRTT(round) - pairs[round-1].RTT()
		if ov < 0 {
			t.Fatalf("round %d overhead %v negative with exact clock", round, ov)
		}
		if ov > 20*time.Millisecond {
			t.Fatalf("round %d overhead %v implausible", round, ov)
		}
	}
}

func TestCrossTrafficGeneratorsStop(t *testing.T) {
	tb := testbed.New(testbed.Config{Seed: 63})
	c2s, s2c := tb.StartCrossTraffic(1000, 500)
	tb.Advance(100 * time.Millisecond)
	c2s.Stop()
	s2c.Stop()
	sentAfterStop := c2s.Sent
	tb.Advance(100 * time.Millisecond)
	if c2s.Sent > sentAfterStop+1 { // one in-flight event may still fire
		t.Fatalf("generator kept sending after Stop: %d -> %d", sentAfterStop, c2s.Sent)
	}
	if c2s.Sent < 50 {
		t.Fatalf("generator sent only %d datagrams in 100ms at 1000/s", c2s.Sent)
	}
}
