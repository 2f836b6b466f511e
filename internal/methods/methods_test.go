package methods

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/httpsim"
	"github.com/browsermetric/browsermetric/internal/stats"
	"github.com/browsermetric/browsermetric/internal/tcpsim"
	"github.com/browsermetric/browsermetric/internal/testbed"
)

func TestTable1Taxonomy(t *testing.T) {
	all := All()
	if len(all) != 11 {
		t.Fatalf("specs = %d, want 11 (10 compared + Java UDP)", len(all))
	}
	if len(Compared()) != 10 {
		t.Fatalf("compared = %d, want 10", len(Compared()))
	}
	httpBased, socketBased := 0, 0
	for _, s := range Compared() {
		switch s.Transport {
		case TransportHTTP:
			httpBased++
		default:
			socketBased++
		}
	}
	if httpBased != 7 || socketBased != 3 {
		t.Fatalf("split = %d HTTP / %d socket, want 7/3", httpBased, socketBased)
	}
	// Native vs plug-in per Table 1.
	for _, s := range All() {
		want := "plug-in"
		switch s.API {
		case browser.APIXHR, browser.APIDOM, browser.APIWebSocket:
			want = "native"
		}
		if s.Availability != want {
			t.Errorf("%s availability = %q, want %q", s.Name, s.Availability, want)
		}
	}
	// Only the UDP method measures loss.
	if Get(JavaUDP).Metrics != "RTT, Tput, Loss" {
		t.Errorf("Java UDP metrics = %q", Get(JavaUDP).Metrics)
	}
}

func TestKindString(t *testing.T) {
	if XHRGet.String() != "XHR GET" || JavaTCP.String() != "Java applet TCP socket" {
		t.Fatal("Kind.String wrong")
	}
}

func TestGetUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Get(Kind(99))
}

// runOnce builds a fresh testbed and executes one measurement run,
// returning the result and the matched wire pairs.
func runOnce(t *testing.T, kind Kind, prof *browser.Profile, timing browser.TimingFunc, seed int64) (*Result, []time.Duration) {
	t.Helper()
	tb := testbed.New(testbed.Config{Seed: seed})
	r := &Runner{TB: tb, Profile: prof, Timing: timing}
	tb.Cap.Reset()
	res, err := r.Run(kind)
	if err != nil {
		t.Fatalf("%v on %s: %v", kind, prof.Label(), err)
	}
	pairs := tb.Cap.MatchRTT(res.ServerPort)
	if len(pairs) < Rounds {
		t.Fatalf("%v: only %d wire pairs captured", kind, len(pairs))
	}
	pairs = pairs[len(pairs)-Rounds:]
	rtts := make([]time.Duration, Rounds)
	for i, p := range pairs {
		rtts[i] = p.RTT()
	}
	return res, rtts
}

func TestEveryMethodRunsOnChromeWindows(t *testing.T) {
	prof := browser.Lookup(browser.Chrome, browser.Windows)
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			res, wire := runOnce(t, spec.Kind, prof, browser.NanoTime, 7)
			for round := 1; round <= Rounds; round++ {
				browserRTT := res.BrowserRTT(round)
				if browserRTT <= 0 {
					t.Fatalf("round %d browser RTT = %v", round, browserRTT)
				}
				overhead := browserRTT - wire[round-1]
				if overhead < 0 {
					t.Fatalf("round %d overhead = %v with exact clock (must be >= 0)", round, overhead)
				}
				if overhead > 300*time.Millisecond {
					t.Fatalf("round %d overhead = %v implausibly large", round, overhead)
				}
			}
		})
	}
}

func TestWebSocketUnsupportedOnIE(t *testing.T) {
	tb := testbed.New(testbed.Config{Seed: 1})
	r := &Runner{TB: tb, Profile: browser.Lookup(browser.IE, browser.Windows)}
	if _, err := r.Run(WebSocket); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v, want ErrUnsupported", err)
	}
}

func TestWireRTTMatchesTestbedDelay(t *testing.T) {
	prof := browser.Lookup(browser.Chrome, browser.Ubuntu)
	_, wire := runOnce(t, JavaTCP, prof, browser.NanoTime, 3)
	for i, rtt := range wire {
		if rtt < 50*time.Millisecond || rtt > 52*time.Millisecond {
			t.Fatalf("wire RTT[%d] = %v, want ~50ms (server delay)", i, rtt)
		}
	}
}

func TestSocketOverheadTiny(t *testing.T) {
	// Table 4 socket row: with nanoTime the Java socket overhead is ~0.
	prof := browser.Lookup(browser.Firefox, browser.Windows)
	res, wire := runOnce(t, JavaTCP, prof, browser.NanoTime, 11)
	d1 := res.BrowserRTT(1) - wire[0]
	if d1 > time.Millisecond {
		t.Fatalf("Java socket Δd1 = %v, want < 1ms", d1)
	}
}

func TestFlashHTTPOverheadLarge(t *testing.T) {
	prof := browser.Lookup(browser.Firefox, browser.Windows)
	res, wire := runOnce(t, FlashGet, prof, browser.NanoTime, 13)
	d2 := res.BrowserRTT(2) - wire[1]
	if d2 < 10*time.Millisecond {
		t.Fatalf("Flash GET Δd2 = %v, want tens of ms", d2)
	}
}

func TestOperaFlashOpensNewConnections(t *testing.T) {
	prof := browser.Lookup(browser.Opera, browser.Windows)

	// GET: new connection on round 1 only.
	resGet, _ := runOnce(t, FlashGet, prof, browser.NanoTime, 17)
	if !resGet.NewConnRounds[0] || resGet.NewConnRounds[1] {
		t.Fatalf("Flash GET new-conn rounds = %v, want [true false]", resGet.NewConnRounds)
	}
	// POST: new connection on both rounds.
	resPost, _ := runOnce(t, FlashPost, prof, browser.NanoTime, 17)
	if !resPost.NewConnRounds[0] || !resPost.NewConnRounds[1] {
		t.Fatalf("Flash POST new-conn rounds = %v, want [true true]", resPost.NewConnRounds)
	}
	// Other browsers reuse for everything.
	resChrome, _ := runOnce(t, FlashPost, browser.Lookup(browser.Chrome, browser.Windows), browser.NanoTime, 17)
	if resChrome.NewConnRounds[0] || resChrome.NewConnRounds[1] {
		t.Fatalf("Chrome Flash POST new-conn rounds = %v, want [false false]", resChrome.NewConnRounds)
	}
}

func TestOperaFlashHandshakeInflatesD1(t *testing.T) {
	// Table 3: Δd1 absorbs a full TCP handshake (~50 ms with the server
	// delay) while Δd2 does not (GET reuses the fresh connection).
	prof := browser.Lookup(browser.Opera, browser.Ubuntu)
	res, wire := runOnce(t, FlashGet, prof, browser.NanoTime, 19)
	d1 := res.BrowserRTT(1) - wire[0]
	d2 := res.BrowserRTT(2) - wire[1]
	if d1 < 60*time.Millisecond {
		t.Fatalf("Δd1 = %v, want > 60ms (handshake + overheads)", d1)
	}
	if d2 > 60*time.Millisecond {
		t.Fatalf("Δd2 = %v, want well below Δd1", d2)
	}
	if d1-d2 < 40*time.Millisecond {
		t.Fatalf("Δd1−Δd2 = %v, want ≈ 50ms handshake", d1-d2)
	}
}

func TestGetTimeQuantizationCanGoNegative(t *testing.T) {
	// On Windows with Date.getTime, the coarse regime makes Δd bimodal
	// and frequently negative for the Java socket method (Fig. 3j / 4a).
	prof := browser.Lookup(browser.Firefox, browser.Windows)
	var ds []float64
	tb := testbed.New(testbed.Config{Seed: 23})
	// Park the clock inside the coarse-granularity regime (4–9 min).
	tb.Advance(5 * time.Minute)
	for i := 0; i < 30; i++ {
		r := &Runner{TB: tb, Profile: prof, Timing: browser.GetTime}
		tb.Cap.Reset()
		res, err := r.Run(JavaTCP)
		if err != nil {
			t.Fatal(err)
		}
		pairs := tb.Cap.MatchRTT(res.ServerPort)
		pairs = pairs[len(pairs)-Rounds:]
		ds = append(ds, stats.Ms(res.BrowserRTT(1)-pairs[0].RTT()))
		tb.Advance(700 * time.Millisecond) // shift quantization phase
	}
	neg := 0
	for _, d := range ds {
		if d < -time.Millisecond.Seconds()*1000 { // below -1 ms
			neg++
		}
	}
	if neg == 0 {
		t.Fatalf("no negative overheads in coarse regime: %v", ds)
	}
}

func TestNanoTimeRemovesNegativeOverheads(t *testing.T) {
	prof := browser.Lookup(browser.Firefox, browser.Windows)
	tb := testbed.New(testbed.Config{Seed: 29})
	tb.Advance(5 * time.Minute) // coarse regime would bite with getTime
	for i := 0; i < 10; i++ {
		r := &Runner{TB: tb, Profile: prof, Timing: browser.NanoTime}
		tb.Cap.Reset()
		res, err := r.Run(JavaTCP)
		if err != nil {
			t.Fatal(err)
		}
		pairs := tb.Cap.MatchRTT(res.ServerPort)
		pairs = pairs[len(pairs)-Rounds:]
		d1 := res.BrowserRTT(1) - pairs[0].RTT()
		if d1 < 0 {
			t.Fatalf("run %d: Δd1 = %v negative with nanoTime", i, d1)
		}
		tb.Advance(700 * time.Millisecond)
	}
}

func TestRepeatedRunsOnSharedTestbed(t *testing.T) {
	// Many sequential runs (incl. UDP rebinding) must not exhaust
	// resources or interfere.
	tb := testbed.New(testbed.Config{Seed: 31})
	prof := browser.Lookup(browser.Chrome, browser.Ubuntu)
	for i := 0; i < 20; i++ {
		for _, k := range []Kind{XHRGet, JavaUDP, WebSocket} {
			r := &Runner{TB: tb, Profile: prof, Timing: browser.NanoTime}
			tb.Cap.Reset()
			if _, err := r.Run(k); err != nil {
				t.Fatalf("iteration %d method %v: %v", i, k, err)
			}
		}
		tb.Advance(time.Second)
	}
}

func TestTransportString(t *testing.T) {
	if TransportHTTP.String() == "" || TransportSocket.String() == "" {
		t.Fatal("empty transport strings")
	}
}

// TestDrainedQueueReportsStalled: a measurement that cannot finish says
// why it ended.
//   - With every frame lost, the client gives up on its connection after
//     repeated retransmission timeouts, and the run fails with that
//     abort instead of waiting for the event queue to drain.
//   - A server that promises more body than it sends leaves every
//     segment acknowledged and no timer armed: the queue really drains,
//     and the run says it stalled, with the virtual time it got to.
//   - Java UDP under total loss resends every 500 ms, so its queue never
//     drains and the run's 30 s virtual deadline passes first.
func TestDrainedQueueReportsStalled(t *testing.T) {
	prof := browser.Lookup(browser.Chrome, browser.Ubuntu)
	r := &Runner{TB: testbed.New(testbed.Config{Seed: 1, LossRate: 1.0}), Profile: prof}
	if _, err := r.Run(XHRGet); !errors.Is(err, tcpsim.ErrAborted) {
		t.Fatalf("total loss: err = %v, want %v", err, tcpsim.ErrAborted)
	}

	r = &Runner{TB: testbed.New(testbed.Config{Seed: 1}), Profile: prof}
	short := &httpsim.Response{Status: 200, Headers: httpsim.Headers{{Key: "Content-Length", Value: "100"}}, Body: []byte("short")}
	r.TB.HTTP.Handler = func(*httpsim.Request) *httpsim.Response { return short }
	_, err := r.Run(XHRGet)
	if err == nil || !strings.HasPrefix(err.Error(), "methods: XHR GET stalled after ") ||
		!strings.HasSuffix(err.Error(), " (virtual): event queue drained") {
		t.Fatalf("short body: err = %v, want a stalled error naming the drained event queue", err)
	}

	r = &Runner{TB: testbed.New(testbed.Config{Seed: 1, LossRate: 1.0}), Profile: prof}
	if _, err := r.Run(JavaUDP); err == nil || err.Error() != "methods: Java applet UDP socket timed out after 30s (virtual)" {
		t.Fatalf("UDP under total loss: err = %v, want the 30s virtual timeout", err)
	}
}

// TestJavaUDPResendsFollowTheirOwnRound checks the resend timer of Run's
// Java UDP rounds at 30% frame loss: every re-sent probe leaves 500 ms
// after the previous send of the same probe. A timer left over from an
// answered round must not re-send the next round's probe early.
func TestJavaUDPResendsFollowTheirOwnRound(t *testing.T) {
	tb := testbed.New(testbed.Config{Seed: 9, LossRate: 0.3})
	r := &Runner{TB: tb, Profile: browser.Lookup(browser.Chrome, browser.Ubuntu), Timing: browser.NanoTime}
	resends := 0
	for run := 0; run < 20; run++ {
		r.RunIndex = run
		tb.BeginRun()
		res, err := r.Run(JavaUDP)
		if err != nil {
			t.Fatal(err)
		}
		last := map[string]time.Duration{} // probe payload -> its latest send
		for _, p := range tb.Cap.Packets() {
			if p.UDP == nil || p.IP.Src != tb.ClientNIC.Addr || p.UDP.DstPort != res.ServerPort {
				continue
			}
			if prev, ok := last[string(p.Payload)]; ok {
				resends++
				if gap := p.Time - prev; gap != udpRetryTimeout {
					t.Errorf("run %d: probe %q re-sent %v after its previous send, want %v", run, p.Payload, gap, udpRetryTimeout)
				}
			}
			last[string(p.Payload)] = p.Time
		}
		tb.Advance(time.Second)
	}
	if resends == 0 {
		t.Fatal("no probe was re-sent at 30% frame loss")
	}
}
