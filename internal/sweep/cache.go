package sweep

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"github.com/browsermetric/browsermetric/internal/core"
	"github.com/browsermetric/browsermetric/internal/obs"
)

// Cache is the content-addressed cell store: one file per cell under
// <dir>/cells, named by the cell's key hash, holding the cell's samples
// as one checksummed internal/frame frame (cellfile.go). It implements
// core.CellCache.
//
// Load and Store are safe for concurrent use by study workers: distinct
// cells touch distinct files, and identical cells write identical bytes
// (last rename wins harmlessly).
type Cache struct {
	dir  string
	salt string
	// cells is the cell path prefix, <dir>/cells/: a cell's path is the
	// prefix, its key hash and ".cell".
	cells   string
	logf    func(format string, args ...any)
	metrics *obs.Metrics

	hits    atomic.Int64
	misses  atomic.Int64
	corrupt atomic.Int64
	stores  atomic.Int64
}

// CacheStats is a point-in-time snapshot of the cache's counters.
type CacheStats struct {
	// Hits counts Loads served from disk; Misses counts absent entries.
	Hits, Misses int64
	// Corrupt counts entries that existed but failed verification
	// (checksum, framing, payload grammar or key mismatch) and were
	// discarded — each is also counted as a miss, since the caller
	// recomputes.
	Corrupt int64
	// Stores counts cells persisted.
	Stores int64
}

// OpenCache opens (creating if needed) a cache rooted at dir, keyed with
// salt (DefaultSalt when empty).
func OpenCache(dir, salt string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("sweep: cache dir must not be empty")
	}
	if salt == "" {
		salt = DefaultSalt
	}
	if err := os.MkdirAll(filepath.Join(dir, "cells"), 0o755); err != nil {
		return nil, fmt.Errorf("sweep: open cache: %w", err)
	}
	cells := filepath.Join(dir, "cells") + string(filepath.Separator)
	return &Cache{dir: dir, salt: salt, cells: cells, logf: func(string, ...any) {}}, nil
}

// SetLog installs a printf-style logger for corruption and recompute
// notices (nil silences them, the default).
func (c *Cache) SetLog(fn func(format string, args ...any)) {
	if fn == nil {
		fn = func(string, ...any) {}
	}
	c.logf = fn
}

// SetMetrics exports the cache's counters through a wall-clock metrics
// registry as sweep_cache_* series, so sweep health is scrapeable like
// everything else. nil (the default) disables the export at zero cost.
// Call before the sweep starts; the Load/Store paths read the registry
// without synchronization.
func (c *Cache) SetMetrics(m *obs.Metrics) {
	c.metrics = m
	if !m.Enabled() {
		return
	}
	m.SetHelp("sweep_cache_hits_total", "Cells replayed from the content-addressed cache.")
	m.SetHelp("sweep_cache_misses_total", "Cache lookups that required recomputation (absent or corrupt entries).")
	m.SetHelp("sweep_cache_corrupt_total", "Cache entries that failed verification and were discarded (each also counts as a miss).")
	m.SetHelp("sweep_cache_stores_total", "Cells persisted to the cache.")
}

// Key returns the content-address key of a cell config under the cache's
// salt.
func (c *Cache) Key(cfg core.Config) Key { return KeyFromConfig(cfg, c.salt) }

// Stats snapshots the hit/miss/corruption counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Corrupt: c.corrupt.Load(),
		Stores:  c.stores.Load(),
	}
}

func (c *Cache) cellPath(hash string) string {
	return c.cells + hash + ".cell"
}

// readBufs holds the buffers Load reads cell files into. A decoded cell
// copies everything it keeps out of the buffer, so a buffer is free again
// as soon as decodeCell returns. A buffer starts at 4 KiB, which holds a
// 50-run cell, and keeps whatever a larger cell grew it to.
var readBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 4<<10)
	return &b
}}

// Load implements core.CellCache: it returns the cached experiment for
// cfg, or ok=false on a miss. A corrupt entry (flipped byte, truncation,
// key mismatch) is detected by the file's checksum, strict decode or key
// check, logged, deleted, and reported as a miss so the scheduler recomputes — it can never surface
// as data.
//
// A hit serializes the key once, into stack scratch, and builds the path
// and the address as one string; the file is read into a pooled buffer.
func (c *Cache) Load(cfg core.Config) (*core.Experiment, bool) {
	key := c.Key(cfg)
	var scratch [256]byte
	path := string(append(key.appendHash(append(scratch[:0], c.cells...)), ".cell"...))
	hash := path[len(c.cells) : len(path)-len(".cell")]
	buf := readBufs.Get().(*[]byte)
	data, err := readCell(path, (*buf)[:0])
	var storedKey string
	var samples []core.Sample
	var derr error
	if err == nil {
		storedKey, samples, derr = decodeCell(data)
	}
	*buf = data
	readBufs.Put(buf)
	if err != nil {
		c.misses.Add(1)
		c.metrics.Add("sweep_cache_misses_total", 1)
		return nil, false
	}
	if derr == nil && storedKey != hash {
		derr = fmt.Errorf("sweep: cell file: stored key %.8s != expected %.8s", storedKey, hash)
	}
	if derr != nil {
		c.corrupt.Add(1)
		c.misses.Add(1)
		c.metrics.Add("sweep_cache_corrupt_total", 1)
		c.metrics.Add("sweep_cache_misses_total", 1)
		c.logf("sweep: corrupt cache entry for %s: %v; recomputing", key, derr)
		os.Remove(path)
		return nil, false
	}
	c.hits.Add(1)
	c.metrics.Add("sweep_cache_hits_total", 1)
	// Reconstruct the experiment exactly as RunContext would have left
	// it: the normalized config plus the stored samples. Every derived
	// statistic and export is a pure function of these, so the replay is
	// bit-identical to recomputation.
	cfg.Normalize()
	return &core.Experiment{Config: cfg, Samples: samples}, true
}

// readCell reads the file at path to EOF, appending to b, which it grows
// only when the file outgrows it.
func readCell(path string, b []byte) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return b, err
	}
	defer f.Close()
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := f.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// Store implements core.CellCache: it persists a completed cell
// atomically (temp file + rename), so a killed sweep leaves either the
// complete entry or none.
func (c *Cache) Store(cfg core.Config, exp *core.Experiment) error {
	hash := c.Key(cfg).Hash()
	data, err := encodeCell(hash, exp.Samples)
	if err != nil {
		return fmt.Errorf("sweep: store cell: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Join(c.dir, "cells"), hash+".tmp*")
	if err != nil {
		return fmt.Errorf("sweep: store cell: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: store cell: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: store cell: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.cellPath(hash)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: store cell: %w", err)
	}
	c.stores.Add(1)
	c.metrics.Add("sweep_cache_stores_total", 1)
	return nil
}
