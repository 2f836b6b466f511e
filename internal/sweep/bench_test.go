package sweep

import (
	"context"
	"os"
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/faults"
	"github.com/browsermetric/browsermetric/internal/methods"
)

// benchOptions is a 4 × 2 × 2 (16-cell) matrix: big enough that the
// cold/warm ratio is meaningful, small enough for bench iterations.
func benchOptions(dir string) Options {
	return Options{
		Methods: []methods.Kind{methods.XHRGet, methods.DOM, methods.WebSocket, methods.JavaTCP},
		Profiles: []*browser.Profile{
			browser.Lookup(browser.Chrome, browser.Windows),
			browser.Lookup(browser.Firefox, browser.Ubuntu),
		},
		Faults:   []faults.Profile{faults.Clean, faults.Lossy1pct},
		Runs:     5,
		Gap:      time.Second,
		BaseSeed: 42,
		Dir:      dir,
	}
}

// BenchmarkSweepCold measures a full compute-and-store sweep into an empty
// cache; BenchmarkSweepWarm measures the same sweep replayed from disk.
// `make bench-json` records both, so benchdiff tracks the warm/cold ratio
// across PRs.
func BenchmarkSweepCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir, err := os.MkdirTemp(b.TempDir(), "cold")
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := Run(context.Background(), benchOptions(dir)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepWarm(b *testing.B) {
	dir := b.TempDir()
	if _, err := Run(context.Background(), benchOptions(dir)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), benchOptions(dir)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheLoad measures the load layer on its own: one Cache.Load
// hit of a stored 50-run cell per iteration (key hash, file read,
// decode and checks).
func BenchmarkCacheLoad(b *testing.B) {
	c, cfg := storedCell(b, 50, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Load(cfg); !ok {
			b.Fatal("Load of a stored cell missed")
		}
	}
}
