package core

import (
	"testing"

	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/methods"
	"github.com/browsermetric/browsermetric/internal/testbed"
)

// TestLongCellOutlivesEphemeralPorts runs Opera's Flash POST, which opens
// three connections a run (the container fetch and one per round), for
// 6000 runs: 18000 dials, more than the 16384 ephemeral ports. The cell
// must complete, as the connections of finished runs are forgotten and
// their ports reused.
func TestLongCellOutlivesEphemeralPorts(t *testing.T) {
	for _, sys := range []browser.OS{browser.Ubuntu, browser.Windows} {
		prof := browser.Lookup(browser.Opera, sys)
		exp, err := Run(Config{Method: methods.FlashPost, Profile: prof, Runs: 6000, Testbed: testbed.Config{Seed: 1}})
		if err != nil {
			t.Fatalf("%s: %v", prof.Label(), err)
		}
		if len(exp.Samples) != 6000*methods.Rounds {
			t.Fatalf("%s: %d samples, want %d", prof.Label(), len(exp.Samples), 6000*methods.Rounds)
		}
	}
}
