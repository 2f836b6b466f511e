package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/browsermetric/browsermetric/internal/arena"
	"github.com/browsermetric/browsermetric/internal/core"
	"github.com/browsermetric/browsermetric/internal/faults"
	"github.com/browsermetric/browsermetric/internal/sweep"
)

// sweepColdRuns is the runs per cell of the cold sweep: long cells.
const sweepColdRuns = 1000

// sweepColdBench executes every cell of sweep.Plan for the default
// four-fault matrix the way a shard worker does: Cache.Load (a miss),
// core.RunContext, Cache.Store, into an empty cache. One op is one cell.
// A cell whose run fails (a burstywifi timeout) is a failed op.
type sweepColdBench struct {
	seed   int64
	work   string
	stride int // a pass runs every stride-th planned cell
	// traced marks a --trace 1 run: every cell runs twice, into two empty
	// caches, so that the untraced and the traced execution of a cell
	// compare like with like, and every execution is cross-checked by a
	// second one.
	traced bool
	sets   int // a dir per set-up

	plan   []sweep.PlannedCell
	dir    string
	caches [2]*sweep.Cache
	arena  *arena.Arena
	exp    *core.Experiment

	cp cellProbe
}

func newSweepColdBench(work string, seed int64, stride int, traced bool) *sweepColdBench {
	return &sweepColdBench{seed: seed, work: work, stride: stride, traced: traced, cp: newCellProbe()}
}

func (b *sweepColdBench) options() sweep.Options {
	return sweep.Options{Runs: sweepColdRuns, BaseSeed: b.seed, Workers: 1}
}

func (b *sweepColdBench) ops() int {
	n := (len(b.plan) + b.stride - 1) / b.stride
	if b.traced {
		n *= 2
	}
	return n
}

// at returns op i's cell and the cache it runs into.
func (b *sweepColdBench) at(i int) (*sweep.PlannedCell, *sweep.Cache) {
	if b.traced {
		return &b.plan[(i/2)*b.stride], b.caches[i%2]
	}
	return &b.plan[i*b.stride], b.caches[0]
}

func (b *sweepColdBench) failureTolerant() {}

func (b *sweepColdBench) setUp() error {
	b.sets++
	b.dir = filepath.Join(b.work, fmt.Sprintf("cold-%d", b.sets))
	b.plan = sweep.Plan(b.options())
	b.arena = arena.New(0)
	// The warm-up op runs the first cell into a cache of its own, so the
	// measured caches start empty.
	warm, err := sweep.OpenCache(filepath.Join(b.dir, "warmup"), "")
	if err != nil {
		return err
	}
	b.caches = [2]*sweep.Cache{warm, warm}
	if _, err := b.op(0, nil); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	for i, name := range []string{"a", "b"} {
		if b.caches[i], err = sweep.OpenCache(filepath.Join(b.dir, name), ""); err != nil {
			return err
		}
	}
	return nil
}

func (b *sweepColdBench) tearDown() { os.RemoveAll(b.dir) }

func (b *sweepColdBench) op(i int, sp *spanRec) (float64, error) {
	cell, cache := b.at(i)
	cfg := cell.Config
	s := sp.begin("sweep.load")
	_, hit := cache.Load(cfg)
	sp.end(s)
	if hit {
		return 0, fmt.Errorf("cell %s hit an empty cache", cell.Hash[:8])
	}
	var (
		exp *core.Experiment
		err error
	)
	if sp == nil {
		run := cfg
		run.Testbed.Arena = b.arena
		exp, err = core.RunContext(context.Background(), run)
	} else {
		exp, err = redriveCell(cfg, b.arena, sp, &b.cp, nil)
	}
	if err != nil {
		return 0, fmt.Errorf("cell %s / %s / %s: %w", cell.Faults, cell.Method, cell.Profile.Label(), err)
	}
	s = sp.begin("sweep.store")
	err = cache.Store(cfg, exp)
	sp.end(s)
	if err != nil {
		return 0, err
	}
	b.exp = exp
	return 1, nil
}

// check requires a full, self-consistent sample set. On a traced run it
// also executes the cell the other way — re-driven call by call after
// an untraced op, through core.RunContext after a traced one, whose op
// re-drove it — and requires identical samples.
func (b *sweepColdBench) check(i int, sp *spanRec) error {
	cell, _ := b.at(i)
	cfg := cell.Config
	if want := cfg.Runs * 2; len(b.exp.Samples) != want {
		return fmt.Errorf("cell holds %d samples, want %d", len(b.exp.Samples), want)
	}
	for _, s := range b.exp.Samples {
		if s.Overhead != s.BrowserRTT-s.WireRTT {
			return fmt.Errorf("run %d round %d: overhead %v != %v - %v", s.Run, s.Round, s.Overhead, s.BrowserRTT, s.WireRTT)
		}
	}
	if !b.traced {
		return nil
	}
	if sp == nil {
		redriven, err := redriveCell(cfg, b.arena, nil, nil, nil)
		if err != nil {
			return fmt.Errorf("re-drive: %w", err)
		}
		return sameSamples(redriven, b.exp)
	}
	// The simulated layers' counters are deterministic, so they are
	// read from this untimed execution rather than from the traced op.
	counted := cfg
	counted.Metrics = b.cp.reg
	ref, err := core.RunContext(context.Background(), counted)
	if err != nil {
		return fmt.Errorf("RunContext: %w", err)
	}
	b.cp.regRuns += uint64(cfg.Runs)
	return sameSamples(b.exp, ref)
}

func (b *sweepColdBench) layers(l *ledger, out map[string]float64) {
	cellLayers(l, &b.cp, out)
	out["sweep.load_us.p50"] = l.p("sweep.load", 0.5, time.Microsecond)
	out["sweep.store_us.p50"] = l.p("sweep.store", 0.5, time.Microsecond)
	var hits, lookups int64
	for _, c := range b.caches {
		st := c.Stats()
		hits += st.Hits
		lookups += st.Hits + st.Misses
	}
	if lookups > 0 {
		out["sweep.hit_share"] = float64(hits) / float64(lookups)
	}
	out["sweep.cell_kb"] = meanCellKB(filepath.Join(b.dir, "a"))
}

// sweepWarmBench replays a sweep from a cache filled during set-up and
// exports it: sweep.Run, then WriteCSV and Report. It uses the repo's CI
// sweep shape (clean and lossy1pct, 50 runs per cell). One op is one
// replay and export.
type sweepWarmBench struct {
	seed int64
	work string
	n    int
	sets int

	opts    sweep.Options
	wantSum [sha256.Size]byte
	out     bytes.Buffer
	res     *sweep.Result
	walls   []time.Duration // cached cells' wall times in the current op
}

func newSweepWarmBench(work string, seed int64, n int) *sweepWarmBench {
	return &sweepWarmBench{seed: seed, work: work, n: n}
}

func (b *sweepWarmBench) ops() int { return b.n }

func (b *sweepWarmBench) setUp() error {
	b.sets++
	b.opts = sweep.Options{
		Faults:   []faults.Profile{faults.Clean, faults.Lossy1pct},
		Runs:     50,
		BaseSeed: b.seed,
		Workers:  1,
		Dir:      filepath.Join(b.work, fmt.Sprintf("warm-%d", b.sets)),
	}
	res, err := sweep.Run(context.Background(), b.opts)
	if err != nil {
		return fmt.Errorf("cold fill: %w", err)
	}
	if st := res.Stats; st.Computed+st.Skipped != st.Cells {
		return fmt.Errorf("cold fill computed %d of %d cells", st.Computed, st.Cells-st.Skipped)
	}
	b.res = res
	if err := b.export(nil); err != nil {
		return err
	}
	b.wantSum = sha256.Sum256(b.out.Bytes())
	if _, err := b.op(0, nil); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return b.check(0, nil)
}

func (b *sweepWarmBench) tearDown() { os.RemoveAll(b.opts.Dir) }

func (b *sweepWarmBench) op(_ int, sp *spanRec) (float64, error) {
	opts := b.opts
	if sp != nil {
		b.walls = b.walls[:0]
		opts.OnCell = func(_ faults.Profile, cs core.CellStatus) {
			if cs.Cached {
				b.walls = append(b.walls, cs.Wall)
			}
		}
	}
	s := sp.begin("sweep.run")
	res, err := sweep.Run(context.Background(), opts)
	sp.end(s)
	if err != nil {
		return 0, err
	}
	b.res = res
	if err := b.export(sp); err != nil {
		return 0, err
	}
	if sp != nil {
		var loads time.Duration
		for _, w := range b.walls {
			sp.led.add("sweep.load", w)
			loads += w
		}
		sp.led.add("sweep.residual", s.Duration()-loads)
	}
	return float64(res.Stats.CachedHits), nil
}

// export renders the replayed sweep's byte surface: the CSV, then the
// report.
func (b *sweepWarmBench) export(sp *spanRec) error {
	s := sp.begin("sweep.export")
	defer sp.end(s)
	b.out.Reset()
	if err := b.res.WriteCSV(&b.out); err != nil {
		return err
	}
	b.out.WriteString(b.res.Report())
	return nil
}

// check requires a fully warm replay whose export hashes to the cold
// export's SHA-256: cached ≡ recomputed.
func (b *sweepWarmBench) check(int, *spanRec) error {
	if st := b.res.Stats; st.CachedHits+st.Skipped != st.Cells || st.Computed != 0 {
		return fmt.Errorf("replay computed %d cells, replayed %d of %d", st.Computed, st.CachedHits, st.Cells-st.Skipped)
	}
	if sha256.Sum256(b.out.Bytes()) != b.wantSum {
		return fmt.Errorf("warm export differs from the cold export")
	}
	return nil
}

func (b *sweepWarmBench) layers(l *ledger, out map[string]float64) {
	out["sweep.load_us.p50"] = l.p("sweep.load", 0.5, time.Microsecond)
	out["sweep.export_ms.p50"] = l.p("sweep.export", 0.5, time.Millisecond)
	out["sweep.residual_ms.p50"] = l.p("sweep.residual", 0.5, time.Millisecond)
	if st := b.res.Stats; st.Cells > st.Skipped {
		out["sweep.hit_share"] = float64(st.CachedHits) / float64(st.Cells-st.Skipped)
	}
	out["sweep.cell_kb"] = meanCellKB(b.opts.Dir)
}

// meanCellKB is the mean size of the cache's cell files in KiB.
func meanCellKB(dir string) float64 {
	files, _ := filepath.Glob(filepath.Join(dir, "cells", "*.cell"))
	var total int64
	for _, f := range files {
		if fi, err := os.Stat(f); err == nil {
			total += fi.Size()
		}
	}
	if len(files) == 0 {
		return 0
	}
	return float64(total) / float64(len(files)) / 1024
}
