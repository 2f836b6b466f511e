package methods

import (
	"errors"
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/netsim"
	"github.com/browsermetric/browsermetric/internal/testbed"
)

func newRunner(t *testing.T, seed int64, b browser.Name, os browser.OS) *Runner {
	t.Helper()
	tb := testbed.New(testbed.Config{Seed: seed})
	return &Runner{TB: tb, Profile: browser.Lookup(b, os), Timing: browser.NanoTime}
}

func TestTrainEveryKind(t *testing.T) {
	kinds := []Kind{XHRGet, XHRPost, DOM, FlashGet, JavaGet, WebSocket, FlashTCP, JavaTCP, JavaUDP}
	for i, kind := range kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			r := newRunner(t, int64(100+i), browser.Chrome, browser.Ubuntu)
			train, err := r.Drive(kind, Train(5))
			if err != nil {
				t.Fatal(err)
			}
			rtts := train.BrowserRTTs()
			if len(rtts) != 5 {
				t.Fatalf("answered = %d, want 5", len(rtts))
			}
			for _, rtt := range rtts {
				if rtt < 50*time.Millisecond || rtt > 250*time.Millisecond {
					t.Fatalf("train RTT %v outside plausible band", rtt)
				}
			}
		})
	}
}

func TestTrainDefaultsProbes(t *testing.T) {
	r := newRunner(t, 7, browser.Chrome, browser.Ubuntu)
	train, err := r.Drive(JavaTCP, Train(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(train.TBs) != 10 {
		t.Fatalf("default probes = %d, want 10", len(train.TBs))
	}
}

func TestTrainUnsupported(t *testing.T) {
	r := newRunner(t, 8, browser.IE, browser.Windows)
	if _, err := r.Drive(WebSocket, Train(5)); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v", err)
	}
}

func TestTrainUDPLossCounting(t *testing.T) {
	tb := testbed.New(testbed.Config{Seed: 9, LossRate: 0.3})
	r := &Runner{TB: tb, Profile: browser.Lookup(browser.Chrome, browser.Ubuntu), Timing: browser.NanoTime}
	train, err := r.Drive(JavaUDP, Train(40))
	if err != nil {
		t.Fatal(err)
	}
	if train.Lost == 0 {
		t.Fatal("no losses counted at 30% link loss")
	}
	if train.Lost+len(train.BrowserRTTs()) != 40 {
		t.Fatalf("lost %d + answered %d != 40", train.Lost, len(train.BrowserRTTs()))
	}
	if lr := train.LossRate(); lr <= 0 || lr >= 1 {
		t.Fatalf("loss rate = %v", lr)
	}
}

func TestTrainResultEmptyLossRate(t *testing.T) {
	if (&Result{}).LossRate() != 0 {
		t.Fatal("empty train loss rate should be 0")
	}
}

// TestTrainOpensConnectionsLikeRun checks every method on every browser
// profile: probe k of a train opens a TCP connection exactly when Run's
// round min(k, 2) does. The flags must agree, and so must the client
// SYNs the capture saw beyond the preparation phase's, which both drives
// share. Opera's Flash POST opens one connection per probe.
func TestTrainOpensConnectionsLikeRun(t *testing.T) {
	const probes = 5
	syns := func(tb *testbed.Testbed) int {
		n := 0
		for _, p := range tb.Cap.Packets() {
			if p.TCP != nil && p.IP.Src == tb.ClientNIC.Addr && p.TCP.Flags&netsim.FlagSYN != 0 {
				n++
			}
		}
		return n
	}
	drive := func(prof *browser.Profile, kind Kind, probes int) (*Result, int) {
		r := &Runner{TB: testbed.New(testbed.Config{Seed: 5}), Profile: prof, Timing: browser.GetTime}
		var res *Result
		var err error
		if probes > 0 {
			res, err = r.Drive(kind, Train(probes))
		} else {
			res, err = r.Run(kind)
		}
		if err != nil {
			t.Fatalf("%s %s: %v", prof.Label(), kind, err)
		}
		return res, syns(r.TB)
	}
	count := func(flags []bool) int {
		n := 0
		for _, f := range flags {
			if f {
				n++
			}
		}
		return n
	}
	perProbe := 0
	for _, prof := range browser.Profiles() {
		for _, spec := range All() {
			if !prof.Supports(spec.API) {
				continue
			}
			run, runSYNs := drive(prof, spec.Kind, 0)
			train, trainSYNs := drive(prof, spec.Kind, probes)
			for k := 1; k <= probes; k++ {
				if got, want := train.NewConnRounds[k-1], run.NewConnRounds[min(k, Rounds)-1]; got != want {
					t.Errorf("%s %s: probe %d opens a connection: %v, Run's round %d: %v", prof.Label(), spec.Name, k, got, min(k, Rounds), want)
				}
			}
			if got, want := trainSYNs-runSYNs, count(train.NewConnRounds)-count(run.NewConnRounds); got != want {
				t.Errorf("%s %s: the train sent %d more SYNs than Run, its flags say %d", prof.Label(), spec.Name, got, want)
			}
			if count(train.NewConnRounds) == probes {
				perProbe++
				if prof.Browser != browser.Opera || spec.Kind != FlashPost {
					t.Errorf("%s %s opens a connection per probe", prof.Label(), spec.Name)
				}
			}
		}
	}
	if perProbe == 0 {
		t.Error("no train opened a connection per probe; Opera (W) Flash POST should")
	}
}

func TestThroughputHTTPDownload(t *testing.T) {
	r := newRunner(t, 11, browser.Chrome, browser.Ubuntu)
	res, err := r.Drive(XHRGet, Transfer(128<<10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != 128<<10 {
		t.Fatalf("bytes = %d", res.Bytes)
	}
	tput := res.BrowserThroughput()
	if tput <= 0 || tput > 100e6 {
		t.Fatalf("throughput = %v bit/s", tput)
	}
	// The transfer is paced by slow start over a 50 ms RTT: multiple
	// round trips, so well below the line rate.
	if tput > 50e6 {
		t.Fatalf("throughput %v implausibly close to line rate for a 50ms path", tput)
	}
}

func TestThroughputSocketEcho(t *testing.T) {
	for _, kind := range []Kind{WebSocket, JavaTCP, FlashTCP} {
		r := newRunner(t, 12, browser.Chrome, browser.Ubuntu)
		res, err := r.Drive(kind, Transfer(32<<10))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if res.BrowserThroughput() <= 0 {
			t.Fatalf("%v: nonpositive throughput", kind)
		}
	}
}

func TestThroughputDefaultsSize(t *testing.T) {
	r := newRunner(t, 13, browser.Chrome, browser.Ubuntu)
	res, err := r.Drive(XHRGet, Transfer(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != 64<<10 {
		t.Fatalf("default size = %d", res.Bytes)
	}
}

func TestThroughputUnsupportedKinds(t *testing.T) {
	r := newRunner(t, 14, browser.Chrome, browser.Ubuntu)
	if _, err := r.Drive(JavaUDP, Transfer(1024)); err == nil {
		t.Fatal("UDP throughput should be rejected")
	}
	r2 := newRunner(t, 15, browser.IE, browser.Windows)
	if _, err := r2.Drive(WebSocket, Transfer(1024)); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v", err)
	}
}

func TestThroughputZeroBrowserDuration(t *testing.T) {
	res := &Result{Bytes: 100, TBs: []time.Duration{time.Second}, TBr: []time.Duration{time.Second}}
	if res.BrowserThroughput() != 0 {
		t.Fatal("zero-duration transfer should report 0")
	}
	if (&Result{Bytes: 100}).BrowserThroughput() != 0 {
		t.Fatal("a result without rounds should report 0")
	}
}
