package shard

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/faults"
	"github.com/browsermetric/browsermetric/internal/frame"
	"github.com/browsermetric/browsermetric/internal/methods"
	"github.com/browsermetric/browsermetric/internal/obs"
	"github.com/browsermetric/browsermetric/internal/sweep"
)

// smallOpts mirrors the sweep package's 16-cell equivalence matrix:
// 4 methods × 2 profiles × 2 faults, 2 runs per cell.
func smallOpts(dir string) sweep.Options {
	return sweep.Options{
		Methods: []methods.Kind{methods.XHRGet, methods.DOM, methods.WebSocket, methods.JavaTCP},
		Profiles: []*browser.Profile{
			browser.Lookup(browser.Chrome, browser.Windows),
			browser.Lookup(browser.Firefox, browser.Ubuntu),
		},
		Faults:   []faults.Profile{faults.Clean, faults.BurstyWiFi},
		Runs:     2,
		Gap:      time.Second,
		BaseSeed: 11,
		Dir:      dir,
	}
}

// exportBytes renders the two deterministic byte surfaces equivalence is
// asserted over: the full per-sample CSV and the text report.
func exportBytes(t testing.TB, r *sweep.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(r.Report())
	return buf.Bytes()
}

// runCluster spins up a coordinator and n in-process workers against a
// fresh cache dir, waits for the merged result, and returns it with the
// coordinator stats. Worker options may be customized per index.
func runCluster(t *testing.T, opts sweep.Options, n int, coord CoordinatorOptions, tweak func(i int, w *WorkerOptions)) (*sweep.Result, Stats) {
	t.Helper()
	coord.Sweep = opts
	c, err := NewCoordinator(coord)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, n)
	wstats := make([]WorkerStats, n)
	for i := 0; i < n; i++ {
		w := WorkerOptions{
			Addr:  c.Addr(),
			Name:  "w" + string(rune('0'+i)),
			Sweep: opts,
			Log:   t.Logf,
		}
		if tweak != nil {
			tweak(i, &w)
		}
		wg.Add(1)
		go func(i int, w WorkerOptions) {
			defer wg.Done()
			wstats[i], errs[i] = RunWorker(ctx, w)
		}(i, w)
	}
	res, err := c.Wait(ctx)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	wg.Wait()
	for i, e := range errs {
		// Crash-injected workers die by design; everyone else must exit
		// cleanly. On a warm cache the first workers can finish every
		// shard and the coordinator close its listener before a later
		// worker dials; that worker's refused dial did no work and is
		// not a failure.
		lateDial := errors.Is(e, syscall.ECONNREFUSED) && wstats[i].ShardsDone == 0
		if e != nil && !lateDial && !strings.Contains(e.Error(), "injected crash") &&
			!strings.Contains(e.Error(), "use of closed network connection") {
			t.Errorf("worker %d: %v", i, e)
		}
	}
	return res, c.Stats()
}

// TestShardEquivalence proves the tentpole contract: a 1-worker cluster,
// a 2-worker cluster, and a 4-worker cluster all export byte-identically
// to a plain single-process sweep of the same configuration.
func TestShardEquivalence(t *testing.T) {
	baseline, err := sweep.Run(context.Background(), smallOpts(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	want := exportBytes(t, baseline)

	for _, workers := range []int{1, 2, 4} {
		opts := smallOpts(t.TempDir())
		res, stats := runCluster(t, opts, workers, CoordinatorOptions{Shards: 8, Log: t.Logf}, nil)
		got := exportBytes(t, res)
		if !bytes.Equal(got, want) {
			t.Errorf("%d-worker cluster export differs from single-process sweep (%d vs %d bytes)",
				workers, len(got), len(want))
		}
		if stats.ShardsDone != stats.Shards {
			t.Errorf("%d workers: %d of %d shards done", workers, stats.ShardsDone, stats.Shards)
		}
		if done := stats.CellsComputed + stats.CellsCached; done < stats.Cells {
			t.Errorf("%d workers: shard reports cover %d of %d cells", workers, done, stats.Cells)
		}
		if res.Stats.Computed > 0 {
			t.Errorf("%d workers: final warm pass computed %d cells; cache should have been complete", workers, res.Stats.Computed)
		}
	}
}

// TestShardWorkerCrashMidRun kills one of three workers after two cells
// (severed connection, no goodbye — the in-process analogue of the CI
// job's SIGKILL). The coordinator must reassign the dead worker's lease
// and the merged output must still be byte-identical to an uninterrupted
// single-process run, with the dead worker's completed cells replayed
// from the cache rather than recomputed.
func TestShardWorkerCrashMidRun(t *testing.T) {
	baseline, err := sweep.Run(context.Background(), smallOpts(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	want := exportBytes(t, baseline)

	opts := smallOpts(t.TempDir())
	// A short TTL keeps the lease-expiry path fast; 8 shards over 16
	// cells gives the survivors work to steal.
	res, stats := runCluster(t, opts, 3,
		CoordinatorOptions{Shards: 8, LeaseTTL: time.Second, Log: t.Logf},
		func(i int, w *WorkerOptions) {
			if i == 0 {
				w.crashAfterCells = 2
			}
		})
	if got := exportBytes(t, res); !bytes.Equal(got, want) {
		t.Errorf("post-crash cluster export differs from single-process sweep")
	}
	if stats.Reassigned == 0 {
		t.Error("worker died holding a lease but nothing was reassigned")
	}
	if stats.ShardsDone != stats.Shards {
		t.Errorf("%d of %d shards done", stats.ShardsDone, stats.Shards)
	}
	if res.Stats.Computed > 0 {
		t.Errorf("final warm pass computed %d cells", res.Stats.Computed)
	}
}

// TestShardSilentWorkerLeaseExpires takes a lease over the raw wire and
// then goes silent without disconnecting: the TTL monitor (not the
// conn-drop fast path) must reclaim the shard so a real worker can run it.
func TestShardSilentWorkerLeaseExpires(t *testing.T) {
	opts := smallOpts(t.TempDir())
	c, err := NewCoordinator(CoordinatorOptions{Sweep: opts, Shards: 4, LeaseTTL: 300 * time.Millisecond, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	conn, err := net.Dial("tcp", c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ack, err := call(conn, &Msg{Type: MsgHello, Name: "zombie", SweepID: opts.ID()})
	if err != nil || !ack.OK {
		t.Fatalf("hello: %v %+v", err, ack)
	}
	grant, err := call(conn, &Msg{Type: MsgLeaseReq})
	if err != nil || grant.Type != MsgLeaseGrant {
		t.Fatalf("lease: %v %+v", err, grant)
	}
	// Hold the lease silently past the TTL; keep the conn open so only
	// the monitor can reclaim it.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Reassigned == 0 {
		if time.Now().After(deadline) {
			t.Fatal("lease never expired")
		}
		time.Sleep(50 * time.Millisecond)
	}
	// A renewal after reclamation must come back revoked.
	rack, err := call(conn, &Msg{Type: MsgRenew, Shard: grant.Shard})
	if err != nil {
		t.Fatal(err)
	}
	if rack.Type != MsgRenewAck || rack.OK {
		t.Fatalf("renew after expiry: %+v, want revoked", rack)
	}
}

// TestShardHelloRejectsMismatchedSweep: a worker whose flags derive a
// different sweep configuration must be refused at Hello, not allowed to
// poison the cache with cells of another matrix.
func TestShardHelloRejectsMismatchedSweep(t *testing.T) {
	opts := smallOpts(t.TempDir())
	c, err := NewCoordinator(CoordinatorOptions{Sweep: opts, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	other := opts
	other.BaseSeed = 999 // different seed → different sweep ID
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, werr := RunWorker(ctx, WorkerOptions{Addr: c.Addr(), Name: "stray", Sweep: other, Log: t.Logf})
	if werr == nil || !strings.Contains(werr.Error(), "mismatch") {
		t.Fatalf("mismatched worker got %v, want configuration-mismatch refusal", werr)
	}
	if c.Stats().Rejected == 0 {
		t.Error("refused Hello not counted in Rejected")
	}
}

// TestShardCorruptFrameCounted: garbage on the control port is counted
// and dropped without disturbing the coordinator.
func TestShardCorruptFrameCounted(t *testing.T) {
	opts := smallOpts(t.TempDir())
	c, err := NewCoordinator(CoordinatorOptions{Sweep: opts, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	conn, err := net.Dial("tcp", c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// A full-size frame with a corrupted payload byte (CRC mismatch).
	b, err := AppendMsg(nil, &Msg{Type: MsgHello, Name: "x", SweepID: opts.ID()})
	if err != nil {
		t.Fatal(err)
	}
	b[frame.HeaderLen] ^= 0xff
	if _, err := conn.Write(b); err != nil {
		t.Fatal(err)
	}
	// The coordinator drops the conn; the read observes EOF.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, rerr := conn.Read(make([]byte, 1)); rerr == nil {
		t.Error("coordinator kept talking after a corrupt frame")
	}
	conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Rejected == 0 {
		if time.Now().After(deadline) {
			t.Fatal("corrupt frame never counted")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestShardMetricsRegistered: the coordinator exposes the shard_* metric
// families on a live registry.
func TestShardMetricsRegistered(t *testing.T) {
	m := obs.NewMetrics()
	opts := smallOpts(t.TempDir())
	res, _ := runCluster(t, opts, 2, CoordinatorOptions{Shards: 4, Log: t.Logf, Metrics: m}, nil)
	if res == nil {
		t.Fatal("no result")
	}
	var buf bytes.Buffer
	m.WritePrometheus(&buf)
	text := buf.String()
	for _, name := range []string{
		"shard_shards", "shard_cells", "shard_shards_done_total",
		"shard_cells_done_total", "shard_leases_granted_total", "shard_workers_seen_total",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("metric %s missing from exposition:\n%s", name, text)
		}
	}
}

// TestShardResumeSkipsWarmCells: a second cluster over the same cache
// dir must replay everything from the cache — zero computes.
func TestShardResumeSkipsWarmCells(t *testing.T) {
	dir := t.TempDir()
	opts := smallOpts(dir)
	first, stats := runCluster(t, opts, 2, CoordinatorOptions{Shards: 4, Log: t.Logf}, nil)
	if stats.CellsComputed == 0 {
		t.Fatal("cold cluster computed nothing")
	}
	warm := smallOpts(dir)
	second, wstats := runCluster(t, warm, 2, CoordinatorOptions{Shards: 4, Log: t.Logf}, nil)
	if wstats.CellsComputed != 0 {
		t.Errorf("warm cluster computed %d cells, want 0", wstats.CellsComputed)
	}
	if !bytes.Equal(exportBytes(t, first), exportBytes(t, second)) {
		t.Error("warm cluster export differs from cold")
	}
}
