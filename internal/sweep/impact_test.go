package sweep

import (
	"context"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/faults"
	"github.com/browsermetric/browsermetric/internal/methods"
)

// opera is the fault-impact study's browser: Opera (W) supports all ten
// methods, and its Flash methods open fresh connections.
var opera = browser.Lookup(browser.Opera, browser.Windows)

// worstLine matches ImpactReport's per-profile summary line.
var worstLine = regexp.MustCompile(`(?m)^(\w+): worst HTTP (.+) ([-+][0-9.]+) ms vs worst socket (.+) ([-+][0-9.]+) ms`)

// TestFaultImpactHTTPHeavierThanSocket is the acceptance property: under
// the bursty-loss profile, at least one HTTP method's p95 Δd must degrade
// by more than any socket method's p95 does. The mechanism is structural —
// a lost probe or echo is retransmitted below both clocks, so the recovery
// time cancels out of Δd; only the HTTP methods that open a fresh TCP
// connection inside the timed window (Opera's Flash GET/POST) expose
// handshake-window losses to the browser clock alone.
func TestFaultImpactHTTPHeavierThanSocket(t *testing.T) {
	res, err := Run(context.Background(), Options{
		Profiles: []*browser.Profile{opera},
		Faults:   []faults.Profile{faults.Clean, faults.BurstyWiFi},
		Runs:     40,
		BaseSeed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.ImpactReport(opera)
	m := worstLine.FindStringSubmatch(rep)
	if m == nil || m[1] != string(faults.BurstyWiFi) {
		t.Fatalf("no burstywifi summary line in the report:\n%s", rep)
	}
	wh, _ := strconv.ParseFloat(m[3], 64)
	ws, _ := strconv.ParseFloat(m[5], 64)
	t.Logf("worst HTTP: %s %+.1f ms; worst socket: %s %+.1f ms", m[2], wh, m[4], ws)
	if wh <= ws {
		t.Errorf("expected an HTTP method's p95 Δd to degrade more than every socket method's: "+
			"worst HTTP %s %+.1f ms <= worst socket %s %+.1f ms", m[2], wh, m[4], ws)
	}
}

// impactOpts is a small one-browser fault-impact sweep.
func impactOpts(dir string) Options {
	return Options{
		Methods:  []methods.Kind{methods.XHRGet, methods.FlashGet, methods.JavaTCP},
		Profiles: []*browser.Profile{opera},
		Faults:   []faults.Profile{faults.Clean, faults.Lossy1pct},
		Runs:     8,
		BaseSeed: 11,
		Workers:  2,
		Dir:      dir,
	}
}

// TestImpactReportDeterministic: two identical sweeps render the same
// report, with one row per method and one summary line per impaired
// fault profile.
func TestImpactReportDeterministic(t *testing.T) {
	var reps [2]string
	for i := range reps {
		res, err := Run(context.Background(), impactOpts(""))
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = res.ImpactReport(opera)
	}
	if reps[0] != reps[1] {
		t.Errorf("reports differ:\n%s\nvs\n%s", reps[0], reps[1])
	}
	for _, k := range impactOpts("").Methods {
		if !strings.Contains(reps[0], "\n"+methods.Get(k).Name+" ") {
			t.Errorf("report has no %s row:\n%s", methods.Get(k).Name, reps[0])
		}
	}
	if n := len(worstLine.FindAllString(reps[0], -1)); n != 1 {
		t.Errorf("report has %d summary lines, want 1:\n%s", n, reps[0])
	}
}

// TestImpactReportSameUncachedColdWarm: one options set renders the same
// ImpactReport without a cache, into a fresh cache, and replayed from
// that cache, and the replay computes nothing.
func TestImpactReportSameUncachedColdWarm(t *testing.T) {
	dir := t.TempDir()
	var (
		reps []string
		warm Stats
	)
	for _, d := range []string{"", dir, dir} {
		res, err := Run(context.Background(), impactOpts(d))
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, res.ImpactReport(opera))
		warm = res.Stats
	}
	if warm.Computed != 0 || warm.CachedHits != warm.Cells {
		t.Errorf("warm rerun stats = %+v, want every cell replayed", warm)
	}
	if reps[1] != reps[0] || reps[2] != reps[0] {
		t.Errorf("reports differ: uncached\n%s\ncold\n%s\nwarm\n%s", reps[0], reps[1], reps[2])
	}
}
