package methods

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/testbed"
)

// pinnedDrives holds a digest of what one Runner reports, on a fresh
// testbed, for a train and then a transfer of one method (see
// driveDigest). The digests pin every browser timestamp, loss count and
// byte count of trains and transfers, which the golden artifacts cover
// only for one profile and a few methods. A change that is meant to move
// them must say which ones move and why. They moved when trains and
// transfers became drives of Run's round machines: an HTTP train or
// transfer now loads the container page first and follows the profile's
// connection policy, and every drive takes its timestamps and costs
// where Run does.
var pinnedDrives = map[string]string{
	"C (U)/DOM":                     "266d66ddd1f65073",
	"C (U)/Flash GET":               "f2ddedc61a543350",
	"C (U)/Flash POST":              "99945aeb9da056a4",
	"C (U)/Flash TCP socket":        "57c3882c01ef123d",
	"C (U)/Java applet GET":         "ed51f3027fa1faf3",
	"C (U)/Java applet POST":        "3c375213d68d9541",
	"C (U)/Java applet TCP socket":  "7248cfce7134f8a0",
	"C (U)/Java applet UDP socket":  "7dcaee179f09d431",
	"C (U)/WebSocket":               "785a8935a41cf931",
	"C (U)/XHR GET":                 "198fb73e58321559",
	"C (U)/XHR POST":                "1da5063a8e0351ef",
	"F (W)/DOM":                     "c498649748020234",
	"F (W)/Flash GET":               "6a4ce6ea911402d9",
	"F (W)/Flash POST":              "199b151d9409836b",
	"F (W)/Flash TCP socket":        "a2d9bef1c9d3ce39",
	"F (W)/Java applet GET":         "6a5e5576a87e6014",
	"F (W)/Java applet POST":        "b5ca6a44611399e9",
	"F (W)/Java applet TCP socket":  "ac441f9bd47fd021",
	"F (W)/Java applet UDP socket":  "a00351cdf0e24eeb",
	"F (W)/WebSocket":               "ff74d5756a2585ac",
	"F (W)/XHR GET":                 "270e6671f802d24f",
	"F (W)/XHR POST":                "5624455e25af30f8",
	"IE (W)/DOM":                    "321afed84badb5dd",
	"IE (W)/Flash GET":              "90ed82e399a8ff9f",
	"IE (W)/Flash POST":             "1352e14c755ad3f5",
	"IE (W)/Flash TCP socket":       "4481036d44144be1",
	"IE (W)/Java applet GET":        "13a95772aed4e60a",
	"IE (W)/Java applet POST":       "7030631495c84969",
	"IE (W)/Java applet TCP socket": "ac441f9bd47fd021",
	"IE (W)/Java applet UDP socket": "a00351cdf0e24eeb",
	"IE (W)/WebSocket":              "26775adaacb08677",
	"IE (W)/XHR GET":                "4a3d3f84045b384b",
	"IE (W)/XHR POST":               "04d3bf411542c4e0",
	"O (W)/DOM":                     "beb18de1bce00fbc",
	"O (W)/Flash GET":               "97f56d0e4ba50c80",
	"O (W)/Flash POST":              "f2dc867066278645",
	"O (W)/Flash TCP socket":        "4a0f1a74bd8eab0a",
	"O (W)/Java applet GET":         "40edbcc4dc642890",
	"O (W)/Java applet POST":        "59f1ce123da88d11",
	"O (W)/Java applet TCP socket":  "ac441f9bd47fd021",
	"O (W)/Java applet UDP socket":  "a00351cdf0e24eeb",
	"O (W)/WebSocket":               "d6ea60a93705f7f2",
	"O (W)/XHR GET":                 "7c07d0c7ed27fc10",
	"O (W)/XHR POST":                "a28469f73836022b",
	"lossy UDP train":               "9b261673c1c896f0",
}

// pinProfiles are the environments the pin covers: both OSes, both
// timing functions, the Flash-policy browser (Opera) and one that lacks
// WebSocket (IE).
var pinProfiles = []struct {
	b      browser.Name
	os     browser.OS
	timing browser.TimingFunc
}{
	{browser.Chrome, browser.Ubuntu, browser.NanoTime},
	{browser.Firefox, browser.Windows, browser.GetTime},
	{browser.IE, browser.Windows, browser.GetTime},
	{browser.Opera, browser.Windows, browser.GetTime},
}

// driveDigest runs a 6-probe train and a 24 KiB transfer of kind on one
// Runner and hashes everything they return, errors included.
func driveDigest(tbCfg testbed.Config, prof *browser.Profile, timing browser.TimingFunc, kind Kind) string {
	r := &Runner{TB: testbed.New(tbCfg), Profile: prof, Timing: timing}
	h := sha256.New()
	train, err := r.Drive(kind, Train(6))
	if err != nil {
		fmt.Fprintf(h, "train err %v\n", err)
	} else {
		fmt.Fprintf(h, "train %d %v %v %d\n", train.ServerPort, train.TBs, train.TBr, train.Lost)
	}
	tput, err := r.Drive(kind, Transfer(24<<10))
	if err != nil {
		fmt.Fprintf(h, "tput err %v\n", err)
	} else {
		fmt.Fprintf(h, "tput %d %d %v %v\n", tput.ServerPort, tput.Bytes, tput.TBs, tput.TBr)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestTrainThroughputPinned checks every method on every pin profile,
// plus a Java UDP train over a link that drops 30% of frames, against
// pinnedDrives. On a mismatch it prints the full table to paste.
func TestTrainThroughputPinned(t *testing.T) {
	got := map[string]string{}
	for pi, p := range pinProfiles {
		prof := browser.Lookup(p.b, p.os)
		for _, spec := range All() {
			key := prof.Label() + "/" + spec.Name
			got[key] = driveDigest(testbed.Config{Seed: int64(1000 + 100*pi + int(spec.Kind))}, prof, p.timing, spec.Kind)
		}
	}
	r := &Runner{TB: testbed.New(testbed.Config{Seed: 9, LossRate: 0.3}),
		Profile: browser.Lookup(browser.Chrome, browser.Ubuntu), Timing: browser.NanoTime}
	train, err := r.Drive(JavaUDP, Train(40))
	if err != nil {
		t.Fatal(err)
	}
	got["lossy UDP train"] = fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%v %v %d", train.TBs, train.TBr, train.Lost))))[:16]
	checkPins(t, pinnedDrives, got)
}

// pinnedRuns holds a digest of three back-to-back Runs of one method on
// a fresh testbed per pin profile (see runDigest), and of Java UDP runs
// over a link that drops 30% of frames. It pins Run alone, so that a
// change to trains or transfers cannot move it: every browser timestamp,
// drawn cost, new-connection flag and captured frame of a two-round run.
var pinnedRuns = map[string]string{
	"C (U)/DOM":                     "ea77875f529d5c43",
	"C (U)/Flash GET":               "d33d43dac7ef1cee",
	"C (U)/Flash POST":              "c7244229c3514aa1",
	"C (U)/Flash TCP socket":        "d2a00d1e53d5d46e",
	"C (U)/Java applet GET":         "0db60a382b291b2e",
	"C (U)/Java applet POST":        "6ecb5acef7254bd4",
	"C (U)/Java applet TCP socket":  "5e669257a463bab4",
	"C (U)/Java applet UDP socket":  "b508d280c6344fb1",
	"C (U)/WebSocket":               "27af124d782f5afe",
	"C (U)/XHR GET":                 "402c82dbe58b156f",
	"C (U)/XHR POST":                "c0c7999f95c28fb0",
	"F (W)/DOM":                     "4a4d34472f605041",
	"F (W)/Flash GET":               "1c0a2b47fe310ef2",
	"F (W)/Flash POST":              "7759b0714e9c6b37",
	"F (W)/Flash TCP socket":        "3b78c80c8afc6515",
	"F (W)/Java applet GET":         "b1069f6de0c4e87f",
	"F (W)/Java applet POST":        "9ebe48cb5d58108f",
	"F (W)/Java applet TCP socket":  "05ea1c2ab8a93c8f",
	"F (W)/Java applet UDP socket":  "2e2a5f6975735ef6",
	"F (W)/WebSocket":               "cbfa2ab47c4ab747",
	"F (W)/XHR GET":                 "bd37095a64d7c684",
	"F (W)/XHR POST":                "394285ff8822fc7c",
	"IE (W)/DOM":                    "b5064f9f58ca03f2",
	"IE (W)/Flash GET":              "e72d3e91cc3be0ac",
	"IE (W)/Flash POST":             "67134712d86e6d53",
	"IE (W)/Flash TCP socket":       "484f6bdc07a64350",
	"IE (W)/Java applet GET":        "77862f24907de476",
	"IE (W)/Java applet POST":       "bd01724e95ddab54",
	"IE (W)/Java applet TCP socket": "36de8f9ce9fc434a",
	"IE (W)/Java applet UDP socket": "3c586d76832e7d84",
	"IE (W)/WebSocket":              "50a9ec1e296b97f2",
	"IE (W)/XHR GET":                "c806e48c7d20aabb",
	"IE (W)/XHR POST":               "5434a59883f30f43",
	"O (W)/DOM":                     "79f7b2e553631ddf",
	"O (W)/Flash GET":               "52e8c9d8f5ab90e9",
	"O (W)/Flash POST":              "b34949794c3111ea",
	"O (W)/Flash TCP socket":        "896c9316e26ec834",
	"O (W)/Java applet GET":         "395211f332c5f02f",
	"O (W)/Java applet POST":        "39960e4f4690bba8",
	"O (W)/Java applet TCP socket":  "4a775e8dc1ffacda",
	"O (W)/Java applet UDP socket":  "8739830e5d8ea6bc",
	"O (W)/WebSocket":               "d7e8f3b448e09db7",
	"O (W)/XHR GET":                 "6ae1209b6ec29932",
	"O (W)/XHR POST":                "710312f051c24be0",
	"lossy UDP runs":                "12069e8d4fa7327b",
}

// runDigest drives runs Runs of kind on one Runner over a fresh testbed,
// the way core's repetition loop does (BeginRun, Run, Advance), and
// hashes each result field by field together with every frame the
// capture saw, errors included.
func runDigest(tbCfg testbed.Config, prof *browser.Profile, timing browser.TimingFunc, kind Kind, runs int) string {
	tb := testbed.New(tbCfg)
	r := &Runner{TB: tb, Profile: prof, Timing: timing}
	h := sha256.New()
	for run := 0; run < runs; run++ {
		r.RunIndex = run
		tb.BeginRun()
		res, err := r.Run(kind)
		if err != nil {
			fmt.Fprintf(h, "run %d err %v\n", run, err)
			continue
		}
		fmt.Fprintf(h, "run %d port %d\n", run, res.ServerPort)
		for i := 0; i < Rounds; i++ {
			fmt.Fprintf(h, "%d %d %t %d %d\n", res.TBs[i], res.TBr[i], res.NewConnRounds[i], res.SendCosts[i], res.RecvCosts[i])
		}
		for _, rec := range tb.Cap.Records() {
			fmt.Fprintf(h, "%d %d %x\n", rec.Time, rec.Dir, rec.Data)
		}
		tb.Advance(time.Second)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestRunPinned checks Run alone against pinnedRuns for every method on
// every pin profile. On a mismatch it prints the full table to paste.
func TestRunPinned(t *testing.T) {
	got := map[string]string{}
	for pi, p := range pinProfiles {
		prof := browser.Lookup(p.b, p.os)
		for _, spec := range All() {
			got[prof.Label()+"/"+spec.Name] = runDigest(testbed.Config{Seed: int64(2000 + 100*pi + int(spec.Kind))}, prof, p.timing, spec.Kind, 3)
		}
	}
	got["lossy UDP runs"] = runDigest(testbed.Config{Seed: 9, LossRate: 0.3},
		browser.Lookup(browser.Chrome, browser.Ubuntu), browser.NanoTime, JavaUDP, 20)
	checkPins(t, pinnedRuns, got)
}

// checkPins compares got against pinned and, on any difference, logs
// the current table in Go syntax.
func checkPins(t *testing.T, pinned, got map[string]string) {
	t.Helper()
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var table strings.Builder
	bad := 0
	for _, k := range keys {
		fmt.Fprintf(&table, "\t%q: %q,\n", k, got[k])
		if pinned[k] != got[k] {
			bad++
			t.Errorf("%s: digest %s, pinned %s", k, got[k], pinned[k])
		}
	}
	if len(pinned) != len(got) {
		t.Errorf("pinned %d digests, ran %d", len(pinned), len(got))
	}
	if bad > 0 || len(pinned) != len(got) {
		t.Logf("current digests:\n%s", table.String())
	}
}
