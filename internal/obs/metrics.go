package obs

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Metrics is a registry of named counters, gauges and streaming
// quantile sketches. All methods are safe for concurrent use, and a nil
// *Metrics is the disabled registry: every method is an allocation-free
// no-op, so instrumentation can stay unconditional on hot paths.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
	sketches map[string]*Sketch
	help     map[string]string
}

// NewMetrics returns an empty enabled registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]int64),
		gauges:   make(map[string]float64),
		sketches: make(map[string]*Sketch),
		help:     make(map[string]string),
	}
}

// intern is the process-wide canonical-string table behind L.
// Keys repeat heavily (one per logical series), so the table stays small
// while hot-path lookups stop allocating: the rendered key lives in a
// stack buffer and the map lookup uses the compiler's zero-copy
// map[string(bytes)] form; only the first sighting of a series copies it
// to the heap.
var (
	internMu sync.RWMutex
	interned = make(map[string]string)
)

// internBytes returns the canonical copy of a rendered key still in its
// scratch buffer, storing it on first sight; the string copy happens only
// on a miss.
func internBytes(b []byte) string {
	internMu.RLock()
	v, ok := interned[string(b)]
	internMu.RUnlock()
	if ok {
		return v
	}
	s := string(b)
	internMu.Lock()
	if v, ok = interned[s]; !ok {
		interned[s] = s
		v = s
	}
	internMu.Unlock()
	return v
}

// lMaxPairs bounds the inline sort buffer in L; longer label sets take a
// (rare, allocating) fallback path.
const lMaxPairs = 8

// L builds a canonical series key: a family name plus label pairs
// rendered in Prometheus form with the label names sorted, so the same
// logical series always maps to the same registry key regardless of
// argument order. kv alternates name, value. Values are escaped at
// exposition time, not here. The returned string is interned: repeat
// calls for the same series allocate nothing, so L is safe to call
// directly on hot paths.
func L(name string, kv ...string) string {
	if len(kv) < 2 {
		return name
	}
	n := len(kv) / 2
	if n > lMaxPairs {
		return internBytes(lSlow(name, kv))
	}
	var pairs [lMaxPairs][2]string
	for i := 0; i < n; i++ {
		pairs[i] = [2]string{kv[2*i], kv[2*i+1]}
	}
	// Insertion sort by label name: n is tiny and this stays inline.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && pairs[j][0] < pairs[j-1][0]; j-- {
			pairs[j], pairs[j-1] = pairs[j-1], pairs[j]
		}
	}
	var buf [128]byte
	b := buf[:0]
	b = append(b, name...)
	b = append(b, '{')
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, pairs[i][0]...)
		b = append(b, '=', '"')
		b = append(b, pairs[i][1]...)
		b = append(b, '"')
	}
	b = append(b, '}')
	return internBytes(b)
}

// lSlow renders a key with an unbounded pair count.
func lSlow(name string, kv []string) []byte {
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b []byte
	b = append(b, name...)
	b = append(b, '{')
	for i, p := range pairs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, p.k...)
		b = append(b, '=', '"')
		b = append(b, p.v...)
		b = append(b, '"')
	}
	b = append(b, '}')
	return b
}

// SetHelp registers Prometheus HELP text for a metric family (the series
// name without labels). The exposition writer emits it once per family.
func (m *Metrics) SetHelp(family, help string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.help[family] = help
	m.mu.Unlock()
}

// Enabled reports whether the registry records anything.
func (m *Metrics) Enabled() bool { return m != nil }

// Add increments the named counter by delta.
func (m *Metrics) Add(name string, delta int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.counters[name] += delta
	m.mu.Unlock()
}

// Counter returns the current value of a counter.
func (m *Metrics) Counter(name string) int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[name]
}

// Set sets the named gauge.
func (m *Metrics) Set(name string, v float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.gauges[name] = v
	m.mu.Unlock()
}

// Gauge returns the current value of a gauge.
func (m *Metrics) Gauge(name string) float64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gauges[name]
}

// Observe records one observation into the named sketch (created on
// first use with DefaultSketchTargets). The sketch answers p50/p95/p99
// over millions of samples in bounded memory and merges across
// registries.
func (m *Metrics) Observe(name string, v float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	s := m.sketches[name]
	if s == nil {
		s = NewSketch()
		m.sketches[name] = s
	}
	s.Observe(v)
	m.mu.Unlock()
}

// ObserveDur records a duration observation in milliseconds.
func (m *Metrics) ObserveDur(name string, d time.Duration) {
	if m == nil {
		return
	}
	m.Observe(name, float64(d)/float64(time.Millisecond))
}

// SketchQuantile returns the named sketch's estimate for quantile q
// (NaN when the sketch is absent or empty).
func (m *Metrics) SketchQuantile(name string, q float64) float64 {
	if m == nil {
		return math.NaN()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.sketches[name]
	if s == nil {
		return math.NaN()
	}
	return s.Quantile(q)
}

// SketchCount returns the observation count of the named sketch.
func (m *Metrics) SketchCount(name string) uint64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.sketches[name]
	if s == nil {
		return 0
	}
	return s.Count()
}

// Merge folds another registry into this one: counters add, sketches
// merge and gauges take the other's value. Counts are commutative; a
// sketch's Sum is a float accumulation, and a fold of several sketches
// compresses after each merge, so its tuples depend on the fold order.
// Callers wanting byte-identical snapshots must merge in a fixed order
// (the study scheduler merges cells in index order, not completion
// order, for exactly this reason).
func (m *Metrics) Merge(o *Metrics) {
	if m == nil || o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, v := range o.counters {
		m.counters[k] += v
	}
	for k, v := range o.gauges {
		m.gauges[k] = v
	}
	for k, os := range o.sketches {
		s := m.sketches[k]
		if s == nil {
			s = NewSketch(os.targets...)
			m.sketches[k] = s
		}
		s.Merge(os)
	}
	for k, v := range o.help {
		if _, ok := m.help[k]; !ok {
			m.help[k] = v
		}
	}
}

// FamiliesMissingHelp returns the sorted metric family names present in
// the registry (counters, gauges and sketches, with label sets
// stripped) that have no SetHelp text. Package test suites assert
// this is empty, so WritePrometheus output never ships HELP-less series.
func (m *Metrics) FamiliesMissingHelp() []string {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	missing := map[string]struct{}{}
	check := func(key string) {
		fam := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			fam = key[:i]
		}
		if _, ok := m.help[fam]; !ok {
			missing[fam] = struct{}{}
		}
	}
	for k := range m.counters {
		check(k)
	}
	for k := range m.gauges {
		check(k)
	}
	for k := range m.sketches {
		check(k)
	}
	return sortedKeys(missing)
}

// snapshot is the export form of a registry; maps marshal with sorted
// keys, so both writers are deterministic for deterministic contents.
type snapshot struct {
	Counters map[string]int64          `json:"counters"`
	Gauges   map[string]float64        `json:"gauges"`
	Sketches map[string]sketchSnapshot `json:"sketches"`
}

type sketchSnapshot struct {
	Count     uint64          `json:"count"`
	Sum       float64         `json:"sum"`
	Min       float64         `json:"min"`
	Max       float64         `json:"max"`
	Quantiles []quantileValue `json:"quantiles"`
}

type quantileValue struct {
	Q float64 `json:"q"`
	V float64 `json:"v"`
}

func (m *Metrics) snapshot() snapshot {
	snap := snapshot{
		Counters: map[string]int64{},
		Gauges:   map[string]float64{},
		Sketches: map[string]sketchSnapshot{},
	}
	if m == nil {
		return snap
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, v := range m.counters {
		snap.Counters[k] = v
	}
	for k, v := range m.gauges {
		snap.Gauges[k] = v
	}
	for k, s := range m.sketches {
		ss := sketchSnapshot{Count: s.Count(), Sum: s.Sum()}
		if s.Count() > 0 {
			// Quantiles of an empty sketch are NaN, which JSON cannot
			// carry; an empty sketch snapshots as count=0 with none.
			ss.Min, ss.Max = s.Min(), s.Max()
			for _, t := range s.Targets() {
				ss.Quantiles = append(ss.Quantiles, quantileValue{Q: t.Quantile, V: s.Quantile(t.Quantile)})
			}
		}
		snap.Sketches[k] = ss
	}
	return snap
}

// WriteJSON writes the registry as an indented JSON snapshot with sorted
// keys.
func (m *Metrics) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m.snapshot())
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
