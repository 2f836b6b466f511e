// Benchmark harness: one bench per table and figure of the paper's
// evaluation (see EXPERIMENTS.md for the paper-vs-measured record), plus
// ablation benches for the design choices DESIGN.md calls out and micro
// benches for the substrates.
//
// The custom metrics (reported via b.ReportMetric) carry the
// paper-comparable numbers: medians and means in milliseconds. Run with
//
//	go test -bench=. -benchmem
package browsermetric

import (
	"fmt"
	"io"
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/arena"
	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/core"
	"github.com/browsermetric/browsermetric/internal/methods"
	"github.com/browsermetric/browsermetric/internal/netsim"
	"github.com/browsermetric/browsermetric/internal/testbed"
	"github.com/browsermetric/browsermetric/internal/wssim"
)

// benchRuns keeps regeneration benches affordable while preserving every
// distributional shape (the paper uses 50; medians stabilize well below).
const benchRuns = 20

// BenchmarkTable1_Taxonomy regenerates Table 1 (method taxonomy).
func BenchmarkTable1_Taxonomy(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		n = len(Table1())
	}
	b.ReportMetric(float64(n), "bytes")
}

// BenchmarkTable2_Matrix regenerates Table 2 (browser/system matrix).
func BenchmarkTable2_Matrix(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		n = len(Table2())
	}
	b.ReportMetric(float64(n), "bytes")
}

// BenchmarkRunStudy times the full measurement matrix on the strictly
// sequential scheduler (Workers: 1) — the study perf baseline (see
// EXPERIMENTS.md).
func BenchmarkRunStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		st, err := RunStudy(StudyOptions{Runs: benchRuns, BaseSeed: int64(i), Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(st.Stats.Workers), "workers")
			b.ReportMetric(float64(st.Stats.CellsFinished), "cells")
		}
	}
}

// BenchmarkFig3_DelayOverheadBoxes regenerates Figure 3: the full ten
// methods × eight browser-OS matrix of Δd1/Δd2 box summaries.
func BenchmarkFig3_DelayOverheadBoxes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		st, err := RunStudy(StudyOptions{Runs: benchRuns, BaseSeed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		// Surface the headline comparison: WebSocket vs Flash GET Δd2
		// medians averaged over combos.
		report(b, st, MethodWebSocket, "ws_d2_ms")
		report(b, st, MethodFlashGet, "flash_d2_ms")
	}
}

func report(b *testing.B, st *Study, kind Method, name string) {
	b.Helper()
	cells := st.MethodCells(kind)
	var sum float64
	for _, c := range cells {
		sum += c.Exp.Box(2).Median
	}
	b.ReportMetric(sum/float64(len(cells)), name)
}

// BenchmarkFig4a_CDFBrowsers regenerates Figure 4(a): Java TCP socket Δd
// CDFs across the five Windows browsers with Date.getTime.
func BenchmarkFig4a_CDFBrowsers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows, err := Fig4(benchRuns)
		if err != nil {
			b.Fatal(err)
		}
		multi := 0
		for _, r := range rows {
			if r.Label != "AV (W)" && len(r.Levels) >= 2 {
				multi++
			}
		}
		b.ReportMetric(float64(multi), "bimodal_rows")
	}
}

// BenchmarkFig4b_CDFAppletviewer regenerates Figure 4(b): the
// appletviewer control still shows the discrete levels, ruling the
// browser out as the cause.
func BenchmarkFig4b_CDFAppletviewer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp, err := core.Run(core.Config{
			Method:  methods.JavaTCP,
			Profile: browser.AppletviewerProfile(),
			Timing:  browser.GetTime,
			Runs:    50,
			Testbed: testbed.Config{Seed: int64(900 + i)},
		})
		if err != nil {
			b.Fatal(err)
		}
		bimodal := 0.0
		if exp.Bimodal(1) {
			bimodal = 1
		}
		b.ReportMetric(bimodal, "bimodal")
	}
}

// BenchmarkFig5_Granularity regenerates Figure 5: the Date.getTime
// granularity probe across the Windows regime cycle.
func BenchmarkFig5_Granularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, distinct := Fig5(12)
		b.ReportMetric(float64(len(distinct)), "granularity_levels")
	}
}

// BenchmarkTable3_FlashOpera regenerates Table 3: median Δd1/Δd2 for
// Flash GET/POST in Opera on both systems.
func BenchmarkTable3_FlashOpera(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, vals, err := Table3(benchRuns)
		if err != nil {
			b.Fatal(err)
		}
		v := vals["O (W)"]
		b.ReportMetric(v[0], "get_d1_ms")
		b.ReportMetric(v[1], "get_d2_ms")
		b.ReportMetric(v[3], "post_d2_ms")
	}
}

// BenchmarkTable4_NanoTime regenerates Table 4: Java applet methods on
// Windows with System.nanoTime (mean ± 95% CI).
func BenchmarkTable4_NanoTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, vals, err := Table4(benchRuns)
		if err != nil {
			b.Fatal(err)
		}
		chrome := vals["Chrome"]
		b.ReportMetric(chrome["GET"][0].Mean, "chrome_get_d1_ms")
		b.ReportMetric(chrome["Socket"][0].Mean, "chrome_sock_d1_ms")
	}
}

// --- Ablations (design choices DESIGN.md calls out) ---

// BenchmarkAblation_HandshakeInclusion isolates the Table 3 mechanism:
// the same Flash GET workload with Opera's new-connection policy versus
// Chrome's reuse policy. The Δd1 gap is the handshake.
func BenchmarkAblation_HandshakeInclusion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opera, err := Appraise(MethodFlashGet, Opera, Windows, Options{Runs: benchRuns})
		if err != nil {
			b.Fatal(err)
		}
		chrome, err := Appraise(MethodFlashGet, Chrome, Windows, Options{Runs: benchRuns})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(opera.MedianOverhead(1), "newconn_d1_ms")
		b.ReportMetric(chrome.MedianOverhead(1), "reuse_d1_ms")
	}
}

// BenchmarkAblation_ClockQuantization isolates the Section 4.2 mechanism:
// the identical Java socket workload with Date.getTime vs System.nanoTime.
func BenchmarkAblation_ClockQuantization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		get, err := Appraise(MethodJavaTCP, Firefox, Windows, Options{Timing: GetTime, Runs: 40})
		if err != nil {
			b.Fatal(err)
		}
		nano, err := Appraise(MethodJavaTCP, Firefox, Windows, Options{Timing: NanoTime, Runs: 40})
		if err != nil {
			b.Fatal(err)
		}
		gb, nb := get.Box(1), nano.Box(1)
		b.ReportMetric(gb.Max-gb.Min, "getTime_range_ms")
		b.ReportMetric(nb.Max-nb.Min, "nanoTime_range_ms")
	}
}

// BenchmarkAblation_ServerDelay varies the paper's +50 ms testbed delay,
// showing the handshake-inflation term tracks the path delay (Section 3's
// observation that the delay choice determines RTT inflation).
func BenchmarkAblation_ServerDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, delay := range []time.Duration{25, 50, 100} {
			d := delay * time.Millisecond
			exp, err := Appraise(MethodFlashGet, Opera, Ubuntu, Options{
				Runs:    benchRuns,
				Testbed: TestbedConfig{ServerDelay: d, Seed: int64(i + 1)},
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(exp.MedianOverhead(1), "d1_ms_delay_"+d.String())
		}
	}
}

// BenchmarkAblation_SystemLoad measures overhead inflation under
// background load (Section 3's load-sensitivity observation): plugin
// methods degrade hardest.
func BenchmarkAblation_SystemLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, load := range []float64{0, 0.5, 1.0} {
			flash, err := Appraise(MethodFlashGet, Chrome, Windows, Options{
				Timing: NanoTime, Runs: benchRuns, Load: load,
			})
			if err != nil {
				b.Fatal(err)
			}
			ws, err := Appraise(MethodWebSocket, Chrome, Windows, Options{
				Timing: NanoTime, Runs: benchRuns, Load: load,
			})
			if err != nil {
				b.Fatal(err)
			}
			suffix := fmt.Sprintf("_load%.0f0pct", load*10)
			b.ReportMetric(flash.MedianOverhead(2), "flash_d2_ms"+suffix)
			b.ReportMetric(ws.MedianOverhead(2), "ws_d2_ms"+suffix)
		}
	}
}

// BenchmarkAblation_TimingOnUbuntu verifies the artifact is Windows-only:
// getTime on Ubuntu keeps a steady 1 ms granularity, so no bimodality.
func BenchmarkAblation_TimingOnUbuntu(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp, err := Appraise(MethodJavaTCP, Chrome, Ubuntu, Options{Timing: GetTime, Runs: 40})
		if err != nil {
			b.Fatal(err)
		}
		bimodal := 0.0
		if exp.Bimodal(1) {
			bimodal = 1
		}
		b.ReportMetric(bimodal, "bimodal")
	}
}

// BenchmarkAblation_CrossTraffic compares wire jitter on the paper's
// controlled (traffic-free) testbed against a contended one — quantifying
// what the paper's cross-traffic control excludes.
func BenchmarkAblation_CrossTraffic(b *testing.B) {
	jitter := func(seed int64, rate float64) float64 {
		tb := testbed.New(testbed.Config{Seed: seed})
		if rate > 0 {
			tb.StartCrossTraffic(rate, 1500)
		}
		r := &methods.Runner{TB: tb, Profile: browser.Lookup(browser.Chrome, browser.Ubuntu), Timing: browser.NanoTime}
		tb.Cap.Reset()
		train, err := r.RunTrain(methods.JavaTCP, 20)
		if err != nil {
			b.Fatal(err)
		}
		pairs := tb.Cap.MatchRTT(train.ServerPort)
		var sum float64
		for i := 1; i < len(pairs); i++ {
			d := float64(pairs[i].RTT()-pairs[i-1].RTT()) / 1e6
			if d < 0 {
				d = -d
			}
			sum += d
		}
		return sum / float64(len(pairs)-1)
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(jitter(int64(i+1), 0), "clean_wire_jitter_ms")
		b.ReportMetric(jitter(int64(i+1), 4000), "contended_wire_jitter_ms")
	}
}

// --- Observability overhead ---

// benchExperiment runs one small experiment cell (5 repetitions, 10 wire
// probes) with the given tracer/metrics — the workload BenchmarkRun and
// BenchmarkRunTraced share.
func benchExperiment(b *testing.B, tr *Tracer, m *Metrics) *core.Experiment {
	b.Helper()
	exp, err := core.Run(core.Config{
		Method:  methods.FlashGet,
		Profile: browser.Lookup(browser.Opera, browser.Windows),
		Timing:  browser.GetTime,
		Runs:    5,
		Gap:     time.Second,
		Testbed: testbed.Config{Seed: 7},
		Tracer:  tr,
		Metrics: m,
	})
	if err != nil {
		b.Fatal(err)
	}
	return exp
}

// BenchmarkRun is the observability-off baseline: the instrumented code
// paths run with a nil tracer and nil metrics registry, whose methods are
// allocation-free no-ops (TestNilTracerZeroAlloc). Compare against
// BenchmarkRunTraced for the cost of leaving instrumentation compiled in;
// EXPERIMENTS.md records the numbers.
func BenchmarkRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchExperiment(b, nil, nil)
	}
}

// BenchmarkRunTraced runs the identical workload with a live tracer and
// metrics registry, measuring the full recording cost (span and attribute
// allocation, sketch updates).
func BenchmarkRunTraced(b *testing.B) {
	b.ReportAllocs()
	var spans int
	for i := 0; i < b.N; i++ {
		tr := NewTracer()
		benchExperiment(b, tr, NewMetrics())
		spans = len(tr.Spans())
	}
	b.ReportMetric(float64(spans), "spans")
}

// --- Substrate micro benches ---

// BenchmarkSubstrate_MeasurementRun times one full two-round measurement
// (preparation + probes) on the simulated testbed.
func BenchmarkSubstrate_MeasurementRun(b *testing.B) {
	tb := testbed.New(testbed.Config{Seed: 1})
	prof := browser.Lookup(browser.Chrome, browser.Ubuntu)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &methods.Runner{TB: tb, Profile: prof, Timing: browser.NanoTime}
		tb.Cap.Reset()
		if _, err := r.Run(methods.WebSocket); err != nil {
			b.Fatal(err)
		}
		tb.Advance(time.Second)
	}
}

// BenchmarkSubstrate_TCPTransfer times a 64 KiB reliable transfer through
// the simulated stack (handshake + segmentation + acks).
func BenchmarkSubstrate_TCPTransfer(b *testing.B) {
	payload := make([]byte, 64<<10)
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		tb := testbed.New(testbed.Config{Seed: int64(i + 1), ServerDelay: time.Millisecond})
		got := 0
		c, err := tb.Client.Dial(tb.ServerAddr, testbed.TCPEchoPort)
		if err != nil {
			b.Fatal(err)
		}
		c.OnEstablished = func() { c.Send(payload) }
		c.OnData = func(p []byte) { got += len(p) }
		tb.Sim.RunUntil(30 * time.Second)
		if got != len(payload) {
			b.Fatalf("echoed %d of %d bytes", got, len(payload))
		}
	}
}

// BenchmarkSubstrate_PacketCodec times a full Ethernet/IPv4/TCP
// serialize+decode round trip the way the simulator's hot path does it:
// the frame is carved from an arena reset every iteration and parsed
// into one reused Packet, so the loop allocates nothing and times the
// codec (header writes, checksums, parsing), not the heap.
func BenchmarkSubstrate_PacketCodec(b *testing.B) {
	src := netsim.MAC{2, 0, 0, 0, 0, 1}
	dst := netsim.MAC{2, 0, 0, 0, 0, 2}
	tbd := testbed.New(testbed.Config{Seed: 1})
	payload := []byte("GET /probe HTTP/1.1\r\nHost: server\r\n\r\n")
	hdr := &netsim.TCP{SrcPort: 49152, DstPort: 80, Flags: netsim.FlagPSH | netsim.FlagACK}
	ar := arena.New(0)
	var pkt netsim.Packet
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ar.Reset()
		frame := netsim.BuildTCPArena(ar, src, dst, tbd.ClientNIC.Addr, tbd.ServerAddr, uint16(i), hdr, payload)
		if err := pkt.Parse(frame, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubstrate_WebSocketFrame times the RFC 6455 frame codec with
// masking (the per-message cost of the WebSocket method).
func BenchmarkSubstrate_WebSocketFrame(b *testing.B) {
	payload := make([]byte, 512)
	f := &wssim.Frame{Fin: true, Opcode: wssim.OpBinary, Masked: true,
		MaskKey: [4]byte{1, 2, 3, 4}, Payload: payload}
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		if _, _, err := wssim.ParseFrame(f.Marshal()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubstrate_PcapWrite times exporting a capture to pcap.
func BenchmarkSubstrate_PcapWrite(b *testing.B) {
	tb := testbed.New(testbed.Config{Seed: 2})
	prof := browser.Lookup(browser.Chrome, browser.Ubuntu)
	r := &methods.Runner{TB: tb, Profile: prof}
	if _, err := r.Run(methods.XHRGet); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tb.Cap.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
