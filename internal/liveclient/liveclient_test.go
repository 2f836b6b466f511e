package liveclient

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/obs"
	"github.com/browsermetric/browsermetric/internal/server"
)

func startServer(t *testing.T, delay time.Duration) server.Addrs {
	t.Helper()
	s, err := server.Start(server.Config{Delay: delay})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s.Addrs()
}

func probeOnce(t *testing.T, m Method) Measurement {
	t.Helper()
	meas, err := m.Probe()
	if err != nil {
		t.Fatalf("%s probe: %v", m.Name(), err)
	}
	return meas
}

func TestHTTPGetMeasurement(t *testing.T) {
	addrs := startServer(t, 5*time.Millisecond)
	m, err := NewHTTPGet(addrs.HTTP)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	meas := probeOnce(t, m)
	if meas.WireRTT() < 5*time.Millisecond {
		t.Fatalf("wire RTT %v below the server delay", meas.WireRTT())
	}
	if meas.BrowserRTT() < meas.WireRTT() {
		t.Fatalf("tool RTT %v below wire RTT %v", meas.BrowserRTT(), meas.WireRTT())
	}
	if meas.Overhead() < 0 {
		t.Fatalf("overhead %v negative", meas.Overhead())
	}
	if meas.Overhead() > time.Second {
		t.Fatalf("overhead %v implausible", meas.Overhead())
	}
}

func TestHTTPPostMeasurement(t *testing.T) {
	addrs := startServer(t, 2*time.Millisecond)
	m, err := NewHTTPPost(addrs.HTTP)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	meas := probeOnce(t, m)
	if meas.Overhead() < 0 {
		t.Fatalf("overhead %v negative", meas.Overhead())
	}
}

func TestHTTPReusesConnection(t *testing.T) {
	addrs := startServer(t, 0)
	m, err := NewHTTPGet(addrs.HTTP)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// Back-to-back probes (Δd1 then Δd2) must both succeed on the single
	// tapped connection.
	for i := 0; i < 3; i++ {
		probeOnce(t, m)
	}
}

func TestWebSocketMeasurement(t *testing.T) {
	addrs := startServer(t, 2*time.Millisecond)
	m, err := NewWebSocket(addrs.WS)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 2; i++ {
		meas := probeOnce(t, m)
		if meas.WireRTT() < 2*time.Millisecond {
			t.Fatalf("wire RTT %v below server delay", meas.WireRTT())
		}
		if meas.Overhead() < 0 {
			t.Fatalf("overhead %v negative", meas.Overhead())
		}
	}
}

func TestTCPMeasurement(t *testing.T) {
	addrs := startServer(t, 2*time.Millisecond)
	m, err := NewTCP(addrs.TCPEcho)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	meas := probeOnce(t, m)
	// The raw socket method has almost nothing above the tap: overhead
	// should be tiny.
	if meas.Overhead() > 5*time.Millisecond {
		t.Fatalf("raw TCP overhead = %v, want near zero", meas.Overhead())
	}
}

func TestUDPMeasurement(t *testing.T) {
	addrs := startServer(t, 2*time.Millisecond)
	m, err := NewUDP(addrs.UDPEcho)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	meas := probeOnce(t, m)
	if meas.WireRTT() < 2*time.Millisecond {
		t.Fatalf("wire RTT %v below server delay", meas.WireRTT())
	}
}

func TestAppraiseSummarizes(t *testing.T) {
	addrs := startServer(t, time.Millisecond)
	m, err := NewTCP(addrs.TCPEcho)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	box, mean, half, err := Appraise(m, 10)
	if err != nil {
		t.Fatal(err)
	}
	if box.N != 10 {
		t.Fatalf("box N = %d", box.N)
	}
	if mean < -1 || mean > 10 {
		t.Fatalf("mean overhead = %.3f ms", mean)
	}
	if half < 0 {
		t.Fatalf("CI half-width = %.3f", half)
	}
}

func TestRunStudyAllStacks(t *testing.T) {
	s, err := server.Start(server.Config{Delay: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	a := s.Addrs()
	rows, err := RunStudyWithOptions(Addrs{HTTP: a.HTTP, WS: a.WS, TCPEcho: a.TCPEcho, UDPEcho: a.UDPEcho}, StudyOptions{Probes: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5 stacks", len(rows))
	}
	for _, r := range rows {
		if r.Box.N != 8 {
			t.Fatalf("%s: N = %d, want 8 (after warm-up)", r.Name, r.Box.N)
		}
		if r.WireRTTMedian < 2 {
			t.Fatalf("%s: wire RTT %.3f ms below server delay", r.Name, r.WireRTTMedian)
		}
		if r.Mean > 100 {
			t.Fatalf("%s: mean overhead %.3f ms implausible on loopback", r.Name, r.Mean)
		}
	}
}

func TestRunStudyMetricsMirrorSimNames(t *testing.T) {
	s, err := server.Start(server.Config{Delay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	a := s.Addrs()
	reg := obs.NewMetrics()
	rows, err := RunStudyWithOptions(
		Addrs{HTTP: a.HTTP, WS: a.WS, TCPEcho: a.TCPEcho, UDPEcho: a.UDPEcho},
		StudyOptions{Probes: 6, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Every stack contributes its probe count and the overhead
	// attribution series under the simulator's stage_* family names.
	for _, method := range []string{"http-get", "http-post", "websocket", "tcp", "udp"} {
		if got := reg.Counter(obs.L("live_probes_total", "method", method)); got != 6 {
			t.Errorf("live_probes_total{method=%s} = %d, want 6", method, got)
		}
		for _, fam := range []string{
			"live_probe_rtt_ms", "live_wire_rtt_ms",
			"stage_send_path_ms", "stage_event_dispatch_ms", "delta_d_ms",
		} {
			key := obs.L(fam, "method", method)
			if n := reg.SketchCount(key); n != 6 {
				t.Errorf("%s sketch count = %d, want 6", key, n)
			}
		}
	}
	// The attribution identity holds in aggregate for the sketch sums:
	// Δd = send-path + event-dispatch per probe (no handshake rounds in
	// a warm study, and wall-clock reads have no quantization term).
	var scrape bytes.Buffer
	if err := reg.WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE delta_d_ms summary",
		"# TYPE stage_send_path_ms summary",
		`delta_d_ms{method="tcp",quantile="0.5"}`,
		`live_probe_rtt_ms{method="websocket",quantile="0.99"}`,
	} {
		if !strings.Contains(scrape.String(), want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

func TestRunStudyBadAddress(t *testing.T) {
	_, err := RunStudyWithOptions(Addrs{HTTP: "127.0.0.1:1"}, StudyOptions{Probes: 3})
	if err == nil {
		t.Fatal("expected error for dead address")
	}
}

func TestOrderingHTTPAboveTCP(t *testing.T) {
	// The paper's socket-vs-HTTP finding holds for the live stacks too:
	// net/http adds more above the tap than a raw socket does.
	addrs := startServer(t, time.Millisecond)
	ht, err := NewHTTPGet(addrs.HTTP)
	if err != nil {
		t.Fatal(err)
	}
	defer ht.Close()
	tc, err := NewTCP(addrs.TCPEcho)
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()

	_, meanHTTP, _, err := Appraise(ht, 15)
	if err != nil {
		t.Fatal(err)
	}
	_, meanTCP, _, err := Appraise(tc, 15)
	if err != nil {
		t.Fatal(err)
	}
	if meanHTTP < meanTCP {
		t.Logf("note: HTTP mean %.4f ms below TCP mean %.4f ms (loopback noise)", meanHTTP, meanTCP)
	}
	// Both must be small and non-pathological on loopback.
	if meanTCP > 5 || meanHTTP > 50 {
		t.Fatalf("means = %.3f / %.3f ms, implausible on loopback", meanTCP, meanHTTP)
	}
}
