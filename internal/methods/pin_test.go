package methods

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/testbed"
)

// pinnedDrives holds a digest of what one Runner reports, on a fresh
// testbed, for a train, then a transfer, then a two-round run of one
// method (see driveDigest). The digests pin every browser timestamp,
// loss count and byte count of trains and transfers, which the golden
// artifacts cover only for one profile and a few methods. A change that
// is meant to move them must say which ones move and why. The Flash TCP
// digests moved once, when trains and transfers began to fetch the
// socket policy before opening a Flash socket, as runs always did.
var pinnedDrives = map[string]string{
	"C (U)/DOM":                     "bae0c35bc4e1720c",
	"C (U)/Flash GET":               "a668621f522a6713",
	"C (U)/Flash POST":              "da8e8928b3093fa0",
	"C (U)/Flash TCP socket":        "78b0396f0eded970",
	"C (U)/Java applet GET":         "638125cb79f3960e",
	"C (U)/Java applet POST":        "902120246f3f0117",
	"C (U)/Java applet TCP socket":  "41a5e71d40edfc63",
	"C (U)/Java applet UDP socket":  "10990695e143ad9f",
	"C (U)/WebSocket":               "54794539aa13e9c4",
	"C (U)/XHR GET":                 "42dc54a19520da67",
	"C (U)/XHR POST":                "28d39c861001f112",
	"F (W)/DOM":                     "1c1ab7728138574e",
	"F (W)/Flash GET":               "daf55e7e297768e0",
	"F (W)/Flash POST":              "dcc54343b8c2f0d2",
	"F (W)/Flash TCP socket":        "6d9ad805d342a83a",
	"F (W)/Java applet GET":         "373e1808c6e8ce02",
	"F (W)/Java applet POST":        "e46bc3826966cc4d",
	"F (W)/Java applet TCP socket":  "2694fd377edf29a5",
	"F (W)/Java applet UDP socket":  "1e1b0f89cc90ed88",
	"F (W)/WebSocket":               "78290326b027adb3",
	"F (W)/XHR GET":                 "67a53c8339e011fb",
	"F (W)/XHR POST":                "948b5d241192956f",
	"IE (W)/DOM":                    "16512fabb323d47a",
	"IE (W)/Flash GET":              "4d9e1038038169c7",
	"IE (W)/Flash POST":             "f9af5af8a02b3a9d",
	"IE (W)/Flash TCP socket":       "901366e44b0f9dff",
	"IE (W)/Java applet GET":        "23cbeb950982822f",
	"IE (W)/Java applet POST":       "a7ad847987d3aabb",
	"IE (W)/Java applet TCP socket": "cca1dc1cd40f2a94",
	"IE (W)/Java applet UDP socket": "b0422a77f54b3951",
	"IE (W)/WebSocket":              "df5b0e6ee335aebf",
	"IE (W)/XHR GET":                "c489b3d03e0a242d",
	"IE (W)/XHR POST":               "542dcb4a7e3355ca",
	"O (W)/DOM":                     "3133fc0c51dd4b69",
	"O (W)/Flash GET":               "59da5ef2c7650465",
	"O (W)/Flash POST":              "f851841860350c15",
	"O (W)/Flash TCP socket":        "1641877ada527ff0",
	"O (W)/Java applet GET":         "f7d3cdf8a114b5ea",
	"O (W)/Java applet POST":        "1a8205d4eb3e6f05",
	"O (W)/Java applet TCP socket":  "b02572af288e643c",
	"O (W)/Java applet UDP socket":  "69672ce630bedc03",
	"O (W)/WebSocket":               "f0ccede0feb60222",
	"O (W)/XHR GET":                 "aad436783e8b8135",
	"O (W)/XHR POST":                "bb42595b3242a859",
	"lossy UDP train":               "00092a99fb59737e",
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

// driveDigest runs a 6-probe train, a 24 KiB transfer and a Run of kind
// on one Runner and hashes everything they return, errors included.
func driveDigest(tbCfg testbed.Config, prof *browser.Profile, timing browser.TimingFunc, kind Kind) string {
	r := &Runner{TB: testbed.New(tbCfg), Profile: prof, Timing: timing}
	h := sha256.New()
	train, err := r.RunTrain(kind, 6)
	if err != nil {
		fmt.Fprintf(h, "train err %v\n", err)
	} else {
		fmt.Fprintf(h, "train %d %v %v %d\n", train.ServerPort, train.TBs, train.TBr, train.Lost)
	}
	tput, err := r.RunThroughput(kind, 24<<10)
	if err != nil {
		fmt.Fprintf(h, "tput err %v\n", err)
	} else {
		fmt.Fprintf(h, "tput %d %d %v %v\n", tput.ServerPort, tput.Bytes, tput.TBs, tput.TBr)
	}
	res, err := r.Run(kind)
	if err != nil {
		fmt.Fprintf(h, "run err %v\n", err)
	} else {
		fmt.Fprintf(h, "run %+v\n", *res)
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
	train, err := r.RunTrain(JavaUDP, 40)
	if err != nil {
		t.Fatal(err)
	}
	got["lossy UDP train"] = fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%v %v %d", train.TBs, train.TBr, train.Lost))))[:16]

	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var table strings.Builder
	bad := 0
	for _, k := range keys {
		fmt.Fprintf(&table, "\t%q: %q,\n", k, got[k])
		if pinnedDrives[k] != got[k] {
			bad++
			t.Errorf("%s: digest %s, pinned %s", k, got[k], pinnedDrives[k])
		}
	}
	if len(pinnedDrives) != len(got) {
		t.Errorf("pinned %d drives, ran %d", len(pinnedDrives), len(got))
	}
	if bad > 0 || len(pinnedDrives) != len(got) {
		t.Logf("current digests:\n%s", table.String())
	}
}
