package sweep

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"github.com/browsermetric/browsermetric/internal/core"
)

// pinnedFaultCells pins the samples of a few 1000-run cells of the
// default four-fault plan at base seed 1, one line per cell: a digest of
// every sample (see cellDigest) and, for a cell that fails, its error
// text. TestGoldenArtifacts covers only clean cells at 50 runs; these
// cover the impaired link, where retransmissions straddle run
// boundaries and connections live on past their run. The burstywifi
// O (U) Java TCP cell fails: in run 164 the echo connection aborts after
// repeated retransmission timeouts, and the run fails with that abort.
// A change meant to move a digest or an error must say which and why.
var pinnedFaultCells = map[string]string{
	"lossy1pct/O (W)/Flash POST":              "130db52e35a8dfce",
	"lossy1pct/C (U)/WebSocket":               "7c957e3bef42bfe2",
	"burstywifi/C (U)/XHR GET":                "8a9afc62bfe3e693",
	"burstywifi/O (U)/Java applet TCP socket": "error: core: run 164: tcpsim: connection aborted",
	"congested/O (W)/Java applet TCP socket":  "0887a5591aae8220",
	"congested/C (U)/Flash GET":               "d2aa115e2f84e3f0",
}

// cellDigest runs one planned cell and returns the first 8 bytes of a
// SHA-256 over its samples in hex, or "error: " and the error text.
func cellDigest(c PlannedCell) string {
	exp, err := core.RunContext(context.Background(), c.Config)
	if err != nil {
		return "error: " + err.Error()
	}
	h := sha256.New()
	for _, s := range exp.Samples {
		fmt.Fprintf(h, "%d %d %d %d %d %v\n", s.Run, s.Round, s.BrowserRTT, s.WireRTT, s.Overhead, s.Handshake)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestFaultCellsPinned checks the cells of pinnedFaultCells against their
// pins. On a mismatch it prints the current table to paste.
func TestFaultCellsPinned(t *testing.T) {
	var table strings.Builder
	found, bad := 0, 0
	for _, c := range Plan(Options{Runs: 1000, BaseSeed: 1}) {
		key := fmt.Sprintf("%s/%s/%s", c.Faults, c.Profile.Label(), c.Config.Method)
		want, ok := pinnedFaultCells[key]
		if !ok {
			continue
		}
		found++
		got := cellDigest(c)
		fmt.Fprintf(&table, "\t%q: %q,\n", key, got)
		if got != want {
			bad++
			t.Errorf("%s: got %s, pinned %s", key, got, want)
		}
	}
	if found != len(pinnedFaultCells) {
		t.Errorf("plan holds %d of the %d pinned cells", found, len(pinnedFaultCells))
	}
	if bad > 0 {
		t.Logf("current pins:\n%s", table.String())
	}
}
