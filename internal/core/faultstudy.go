package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/faults"
	"github.com/browsermetric/browsermetric/internal/methods"
)

// FaultImpactOptions configures the impairment study: one fixed browser
// appraised with every method under a sweep of fault profiles, quantifying
// how each measurement method's Δd distribution degrades when the path
// stops being the paper's pristine LAN.
type FaultImpactOptions struct {
	// Profiles is the fault-profile sweep (default: all built-ins, Clean
	// first so every row has an unimpaired reference column).
	Profiles []faults.Profile
	// Methods defaults to the paper's ten compared methods.
	Methods []methods.Kind
	// Browser defaults to Opera/Windows — the one profile that supports
	// all ten methods and whose Flash methods open fresh connections, the
	// paper's handshake-sensitivity showcase.
	Browser *browser.Profile
	// Runs per (method, fault profile) cell (default 50), Gap between runs.
	Runs int
	Gap  time.Duration
	// BaseSeed is shared by every fault profile: profile f's cells run
	// the exact seed schedule of the Clean cells, so distribution shifts
	// are attributable to the impairment alone, not to reseeding.
	BaseSeed int64
	// Workers caps cell concurrency (see StudyOptions.Workers).
	Workers int
	// Timing selects the timestamping API (default Date.getTime).
	Timing browser.TimingFunc
}

func (o *FaultImpactOptions) fillDefaults() {
	if len(o.Profiles) == 0 {
		o.Profiles = faults.Profiles()
	}
	if len(o.Methods) == 0 {
		for _, s := range methods.Compared() {
			o.Methods = append(o.Methods, s.Kind)
		}
	}
	if o.Browser == nil {
		o.Browser = browser.Lookup(browser.Opera, browser.Windows)
	}
	if o.Runs == 0 {
		o.Runs = 50
	}
}

// MethodFaultImpact is one row of the impact matrix: a method's Δd2
// quantiles under each fault profile, aligned index-for-index with
// FaultImpact.Profiles.
type MethodFaultImpact struct {
	Method    methods.Kind
	Name      string
	Transport methods.Transport
	// P50 and P95 are Δd (round 2, ms) quantiles per fault profile.
	P50 []float64
	P95 []float64
}

// Degradation returns how much the method's p95 Δd grew under profile i
// relative to the first (reference, normally Clean) profile, in ms.
func (m *MethodFaultImpact) Degradation(i int) float64 { return m.P95[i] - m.P95[0] }

// FaultImpact is a completed impairment study.
type FaultImpact struct {
	Options  FaultImpactOptions
	Profiles []faults.Profile
	Browser  *browser.Profile
	Rows     []MethodFaultImpact
	// Studies holds the per-profile studies backing the rows (aligned with
	// Profiles), so callers can export full CSVs or inspect CDFs.
	Studies []*Study
}

// RunFaultImpact runs the faults × methods matrix over the one browser —
// identical cells and seeds under every fault profile, only the
// impairment differs — and tabulates per-method Δd quantiles.
// Deterministic: same options ⇒ byte-identical Report.
func RunFaultImpact(ctx context.Context, opts FaultImpactOptions) (*FaultImpact, error) {
	opts.fillDefaults()
	studies, err := RunFaultStudies(ctx, StudyOptions{
		Methods:  opts.Methods,
		Profiles: []*browser.Profile{opts.Browser},
		Timing:   opts.Timing,
		Runs:     opts.Runs,
		Gap:      opts.Gap,
		BaseSeed: opts.BaseSeed,
		Workers:  opts.Workers,
	}, opts.Profiles)
	if err != nil {
		return nil, err
	}
	fi := &FaultImpact{Options: opts, Profiles: opts.Profiles, Browser: opts.Browser, Studies: studies}

	for _, k := range opts.Methods {
		spec := methods.Get(k)
		if !opts.Browser.Supports(spec.API) {
			continue
		}
		row := MethodFaultImpact{Method: k, Name: spec.Name, Transport: spec.Transport}
		for _, st := range fi.Studies {
			s := st.Cell(k, opts.Browser.Label()).Exp.roundSamples(2)
			row.P50 = append(row.P50, s.Quantile(0.5))
			row.P95 = append(row.P95, s.Quantile(0.95))
		}
		fi.Rows = append(fi.Rows, row)
	}
	return fi, nil
}

// WorstDegradation returns the largest p95 degradation (vs the reference
// profile) under fault profile i among methods of the given transport,
// plus the method it belongs to. ok is false when no method matched.
func (fi *FaultImpact) WorstDegradation(i int, tr methods.Transport) (worst float64, of methods.Kind, ok bool) {
	for _, r := range fi.Rows {
		if r.Transport != tr {
			continue
		}
		if d := r.Degradation(i); !ok || d > worst {
			worst, of, ok = d, r.Method, true
		}
	}
	return worst, of, ok
}

// Report renders the impact matrix as a text table: one row per method,
// p95 Δd per fault profile with the degradation vs the reference profile
// in parentheses, and a per-profile summary contrasting the worst HTTP
// method with the worst socket method.
func (fi *FaultImpact) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fault-impact study — Δd2 p95 (ms) on %s, %d runs/cell, seed %d\n\n",
		fi.Browser.Label(), fi.Options.Runs, fi.Options.BaseSeed)

	fmt.Fprintf(&b, "%-14s %-6s", "method", "trans")
	for _, fp := range fi.Profiles {
		fmt.Fprintf(&b, " %16s", fp)
	}
	b.WriteString("\n")
	for _, r := range fi.Rows {
		fmt.Fprintf(&b, "%-14s %-6s", r.Name, r.Transport)
		for i := range fi.Profiles {
			if i == 0 {
				fmt.Fprintf(&b, " %16.2f", r.P95[i])
			} else {
				fmt.Fprintf(&b, " %8.2f (%+5.1f)", r.P95[i], r.Degradation(i))
			}
		}
		b.WriteString("\n")
	}

	for i, fp := range fi.Profiles {
		if i == 0 {
			continue
		}
		wh, hm, okH := fi.WorstDegradation(i, methods.TransportHTTP)
		ws, sm, okS := fi.WorstDegradation(i, methods.TransportSocket)
		if !okH || !okS {
			continue
		}
		fmt.Fprintf(&b, "\n%s: worst HTTP %s %+.1f ms vs worst socket %s %+.1f ms (p95 vs %s)",
			fp, methods.Get(hm).Name, wh, methods.Get(sm).Name, ws, fi.Profiles[0])
	}
	b.WriteString("\n")
	return b.String()
}
