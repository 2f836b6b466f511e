package sweep

import (
	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/core"
	"github.com/browsermetric/browsermetric/internal/faults"
	"github.com/browsermetric/browsermetric/internal/methods"
)

// PlannedCell is one executable cell of a sweep matrix: its identity for
// humans, the exact config it runs under (seed included), and its
// content address in the cache. Skipped (unsupported) combos are absent
// from a plan — they produce no samples and no cache entry.
type PlannedCell struct {
	Faults  faults.Profile
	Method  methods.Kind
	Profile *browser.Profile
	// Config is the cell's full execution config, built by the same
	// core.FaultCells expansion Run executes, so executing it
	// out-of-process stores into the same cache entry.
	Config core.Config
	// Hash is the cell's content address under DefaultSalt: the cache
	// file name.
	Hash string
}

// Plan enumerates every executable cell of the sweep in plan order
// (core.FaultCells: fault-profile major, then method, then browser
// profile), the order of Run's exports; Run itself computes them in an
// order of its own. Every process planning the same Options derives the
// same cell list with the same content addresses, so a cell executed
// from a plan is stored where Run looks for it.
func Plan(opts Options) []PlannedCell {
	opts.fillDefaults()
	var out []PlannedCell
	for _, cfg := range core.FaultCells(opts.studyOptions(), opts.Faults) {
		if !cfg.Profile.Supports(methods.Get(cfg.Method).API) {
			continue
		}
		out = append(out, PlannedCell{
			Faults:  cfg.Testbed.Faults,
			Method:  cfg.Method,
			Profile: cfg.Profile,
			Config:  cfg,
			Hash:    KeyFromConfig(cfg, DefaultSalt).Hash(),
		})
	}
	return out
}
