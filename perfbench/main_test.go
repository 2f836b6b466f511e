package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestKernelAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(20, func() { kernel() }); n != 0 {
		t.Fatalf("reference kernel allocates %v objects per run, want 0", n)
	}
}

// counts are the figures a fixed seed must reproduce.
type counts struct {
	allocsPerOp, okShare, eventsPerRun float64
}

// allocsTolerance is how far allocs_per_op may move between two runs of
// one seed. Heap-object counts are not bit-exact: map growth depends on
// each map's random hash seed, and sync.Pool caches (fmt's among them)
// refill after every GC, so a few objects per op come and go.
const allocsTolerance = 0.05

// measureCounts runs an untraced and a traced pass of b's workload, as a
// --trace 1 run does, and returns the counts a fixed seed must repeat.
func measureCounts(t *testing.T, mk func() bench) counts {
	t.Helper()
	rt := newRTReader()
	plain := mk()
	if err := plain.setUp(); err != nil {
		t.Fatal(err)
	}
	p := runPass(plain, nil, rt)
	plain.tearDown()

	traced := mk()
	if err := traced.setUp(); err != nil {
		t.Fatal(err)
	}
	led := newLedger(filepath.Join(t.TempDir(), "trace.json"))
	origin := time.Now()
	runPass(traced, func(i int) *spanRec { return newSpanRec(led, i, origin) }, rt)
	traced.tearDown()
	if led.traceErr != nil {
		t.Fatal(led.traceErr)
	}
	m := map[string]float64{}
	traced.layers(led, m)
	e := endToEnd(p, 0, 0, false)
	return counts{e["allocs_per_op"], e["ok_share"], m["eventsim.events_per_run"]}
}

func TestCountsRepeatForFixedSeed(t *testing.T) {
	work := t.TempDir()
	for _, tc := range []struct {
		name string
		mk   func() bench
	}{
		{"paper-regen", func() bench {
			b, err := newPaperBench("..", 7, 3, true)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
		// Every 13th planned cell: all four fault profiles, burstywifi
		// timeouts included.
		{"sweep-cold", func() bench { return newSweepColdBench(work, 1, 13, true) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := measureCounts(t, tc.mk)
			b := measureCounts(t, tc.mk)
			if a.okShare != b.okShare || a.eventsPerRun != b.eventsPerRun {
				t.Fatalf("ok_share or eventsim.events_per_run differ between two runs of one seed: %+v vs %+v", a, b)
			}
			if d := math.Abs(a.allocsPerOp-b.allocsPerOp) / a.allocsPerOp; d > allocsTolerance {
				t.Fatalf("allocs_per_op moved %.1f%% between two runs of one seed: %+v vs %+v", 100*d, a, b)
			}
			if a.eventsPerRun == 0 || a.okShare == 0 || a.allocsPerOp == 0 {
				t.Fatalf("counts not measured: %+v", a)
			}
		})
	}
}

func TestPaperRegenMatchesCommittedArtifacts(t *testing.T) {
	b, err := newPaperBench("..", 0, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), b.want...)
	if err := b.setUp(); err != nil {
		t.Fatal(err)
	}
	if string(b.out.Bytes()) != string(want) {
		t.Fatal("in-process regeneration differs from artifacts/appraise_all.txt")
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json's metric lists in
// step with the metrics the benchmark prints.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEndMetrics)
	same("per_layer", doc.PerLayer, perLayerMetrics)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, benchmark %s", i, doc.Workloads[i].Name, w.name)
		}
	}
}

func TestFoldAssignsBuckets(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"internal/runtime/maps.(*Iter).Next", "github.com/browsermetric/browsermetric/internal/tcpsim.(*Stack).Quiescent"}, "maps"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.memmove", "github.com/browsermetric/browsermetric/internal/netsim.(*Link).Send", "main.(*paperBench).op"}, "netsim"},
		{[]string{"crypto/sha256.block", "main.kernel"}, "bench"},
		{[]string{"runtime.futex", "runtime.notesleep"}, ""},
	} {
		if got := bucketOf(tc.stack); got != tc.want {
			t.Errorf("bucketOf(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

func TestBlockP90DropsAMinorityBurst(t *testing.T) {
	steady := make([]time.Duration, 200)
	for i := range steady {
		steady[i] = 100 * time.Millisecond
		if i%10 == 9 {
			steady[i] = 120 * time.Millisecond
		}
	}
	burst := append([]time.Duration(nil), steady...)
	for i := 40; i < 80; i++ {
		burst[i] *= 2
	}
	if a, b := blockP90(steady), blockP90(burst); a != b {
		t.Fatalf("a burst over 2 of 10 blocks moved the block p90: %v ms -> %v ms", a, b)
	}
	if a, b := durQuantile(steady, 0.9, time.Millisecond), durQuantile(burst, 0.9, time.Millisecond); a == b {
		t.Fatalf("the pass p90 should read the burst, got %v ms both times", a)
	}
}
