package sweep

import (
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/core"
	"github.com/browsermetric/browsermetric/internal/faults"
	"github.com/browsermetric/browsermetric/internal/methods"
	"github.com/browsermetric/browsermetric/internal/testbed"
)

// baseKeyConfig is a fully non-zero cell config, so every reflective
// mutation below lands on a value the normalizer cannot swallow.
func baseKeyConfig() core.Config {
	cfg := core.Config{
		Method:  methods.XHRGet,
		Profile: browser.Lookup(browser.Chrome, browser.Windows),
		Timing:  browser.NanoTime,
		Runs:    7,
		Gap:     3 * time.Second,
		Warp:    2 * time.Minute,
	}
	cfg.Testbed = testbed.Config{
		ServerDelay:     40 * time.Millisecond,
		LinkRate:        10_000_000,
		Propagation:     7 * time.Microsecond,
		LossRate:        0.02,
		ServerParseCost: 3 * time.Millisecond,
		Faults:          faults.Lossy1pct,
		Seed:            99,
	}
	return cfg
}

// TestKeyCoversEveryConfigField reflectively mutates each field of
// core.Config (and the nested testbed.Config) one at a time and asserts
// every mutation changes the cache key. When the config grows a knob that
// KeyFromConfig does not hash, this test fails — the exact "silently
// unhashed field" failure mode that would alias distinct cells.
func TestKeyCoversEveryConfigField(t *testing.T) {
	base := baseKeyConfig()
	baseHash := KeyFromConfig(base, "salt-a").Hash()

	// Observational fields: they cannot change a simulated outcome, so
	// the key deliberately excludes them. Everything else must be hashed.
	observational := map[string]bool{
		"Tracer":          true,
		"Metrics":         true,
		"Testbed.Tracer":  true,
		"Testbed.Metrics": true,
		"Testbed.Arena":   true,
	}

	type leaf struct {
		path string
		idx  []int
	}
	var leaves []leaf
	var collect func(rt reflect.Type, path string, idx []int)
	collect = func(rt reflect.Type, path string, idx []int) {
		for i := 0; i < rt.NumField(); i++ {
			f := rt.Field(i)
			p := f.Name
			if path != "" {
				p = path + "." + f.Name
			}
			ix := append(append([]int(nil), idx...), i)
			// time.Duration and the enum types are int kinds; the only
			// true struct field is the nested testbed config.
			if f.Type.Kind() == reflect.Struct {
				collect(f.Type, p, ix)
				continue
			}
			leaves = append(leaves, leaf{p, ix})
		}
	}
	collect(reflect.TypeOf(core.Config{}), "", nil)

	mutated := 0
	for _, l := range leaves {
		if observational[l.path] {
			continue
		}
		cfg := base
		fv := reflect.ValueOf(&cfg).Elem().FieldByIndex(l.idx)
		switch fv.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			fv.SetInt(fv.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			fv.SetUint(fv.Uint() + 1)
		case reflect.Float32, reflect.Float64:
			fv.SetFloat(fv.Float() + 0.25)
		case reflect.String:
			fv.SetString(fv.String() + "x")
		case reflect.Bool:
			fv.SetBool(!fv.Bool())
		case reflect.Pointer:
			if fv.Type() == reflect.TypeOf((*browser.Profile)(nil)) {
				fv.Set(reflect.ValueOf(browser.Lookup(browser.Firefox, browser.Windows)))
				break
			}
			t.Fatalf("config field %s: unhandled pointer type %v — decide whether it belongs in the cache key and extend this test", l.path, fv.Type())
		default:
			t.Fatalf("config field %s: unhandled kind %v — decide whether it belongs in the cache key and extend this test", l.path, fv.Kind())
		}
		if got := KeyFromConfig(cfg, "salt-a").Hash(); got == baseHash {
			t.Errorf("mutating %s did not change the cache key: the field is silently unhashed", l.path)
		}
		mutated++
	}
	// The walk must have actually exercised the config surface: 7 fields
	// in core.Config + 7 in testbed.Config minus the 4 observational.
	if mutated < 10 {
		t.Fatalf("only %d fields mutated; the reflective walk is broken", mutated)
	}
}

// TestKeyExcludesObservationalFields: attaching a tracer or metrics
// registry must not re-key a cell — observability is free to vary between
// the run that populated the cache and the run that replays it.
func TestKeyExcludesObservationalFields(t *testing.T) {
	base := baseKeyConfig()
	want := KeyFromConfig(base, "").Hash()
	cfg := base
	cfg.Tracer = nil
	cfg.Metrics = nil
	if got := KeyFromConfig(cfg, "").Hash(); got != want {
		t.Errorf("nil observability changed the key")
	}
}

// TestKeyProfileLoadHashed: a WithLoad profile variant measures different
// overheads, so it must never collide with its idle base profile. The
// load factor is unexported in browser.Profile, which is exactly how it
// could escape a naive key — this pins the dedicated accessor path.
func TestKeyProfileLoadHashed(t *testing.T) {
	base := baseKeyConfig()
	loaded := base
	loaded.Profile = base.Profile.WithLoad(0.5)
	if KeyFromConfig(base, "").Hash() == KeyFromConfig(loaded, "").Hash() {
		t.Errorf("WithLoad(0.5) profile variant hashes identically to the idle profile")
	}
}

// TestKeySaltVersioning: the same cell under a different code-version
// salt is a different address, so stale entries from older simulation
// semantics can never be replayed.
func TestKeySaltVersioning(t *testing.T) {
	base := baseKeyConfig()
	a := KeyFromConfig(base, "salt-a").Hash()
	b := KeyFromConfig(base, "salt-b").Hash()
	if a == b {
		t.Errorf("salt does not participate in the key")
	}
	if KeyFromConfig(base, "").Hash() != KeyFromConfig(base, DefaultSalt).Hash() {
		t.Errorf("empty salt must mean DefaultSalt")
	}
}

// TestKeyNormalization: zero-valued knobs hash as their paper defaults,
// so "default by omission" and "default spelled out" name the same cell.
func TestKeyNormalization(t *testing.T) {
	implicit := core.Config{
		Method:  methods.WebSocket,
		Profile: browser.Lookup(browser.Chrome, browser.Ubuntu),
	}
	explicit := implicit
	explicit.Runs = 50
	explicit.Gap = 10 * time.Second
	explicit.Testbed.ServerDelay = 50 * time.Millisecond
	explicit.Testbed.LinkRate = 100_000_000
	explicit.Testbed.Propagation = 5 * time.Microsecond
	if KeyFromConfig(implicit, "").Hash() != KeyFromConfig(explicit, "").Hash() {
		t.Errorf("zero config and explicit paper defaults hash differently")
	}
}

// TestKeyCanonicalCoversEveryKeyField is the inner guard: mutating any
// field of the flattened Key struct must change its canonical bytes (and
// therefore the hash). A Key field that Canonical() forgets to render
// fails here.
func TestKeyCanonicalCoversEveryKeyField(t *testing.T) {
	base := Key{
		Salt: "s", Method: "m", Browser: "b", OS: "o", Load: 0.5,
		Timing: "t", Runs: 3, GapNs: 5, WarpNs: 7, Seed: 11,
		ServerDelayNs: 13, LinkRateBps: 17, PropagationNs: 19,
		LossRate: 0.25, ServerParseCostNs: 23, Faults: "f",
	}
	baseBytes := string(base.Canonical())
	rt := reflect.TypeOf(base)
	for i := 0; i < rt.NumField(); i++ {
		k := base
		fv := reflect.ValueOf(&k).Elem().Field(i)
		switch fv.Kind() {
		case reflect.Int, reflect.Int64:
			fv.SetInt(fv.Int() + 1)
		case reflect.Float64:
			fv.SetFloat(fv.Float() + 0.25)
		case reflect.String:
			fv.SetString(fv.String() + "x")
		default:
			t.Fatalf("Key field %s: unhandled kind %v — extend Canonical and this test", rt.Field(i).Name, fv.Kind())
		}
		if string(k.Canonical()) == baseBytes {
			t.Errorf("mutating Key.%s did not change Canonical()", rt.Field(i).Name)
		}
		if k.Hash() == base.Hash() {
			t.Errorf("mutating Key.%s did not change Hash()", rt.Field(i).Name)
		}
	}
}

// TestKeyStringStable pins the log identity format.
func TestKeyStringStable(t *testing.T) {
	k := KeyFromConfig(baseKeyConfig(), "salt-a")
	s := k.String()
	if len(s) == 0 || s[len(s)-9] != '@' {
		t.Fatalf("Key.String() = %q, want ...@<8 hex>", s)
	}
}

// TestKeyGolden pins the content address itself: the canonical bytes and
// hash of one fixed Key, and the hash of one fixed config. Every cache
// on disk is addressed by these bytes, so a serializer change that
// shifts a single byte would turn every stored cell into a miss; it must
// fail here instead. Only a deliberate DefaultSalt bump may move the
// config's pin.
func TestKeyGolden(t *testing.T) {
	k := Key{
		Salt: "s", Method: "m", Browser: "b", OS: "o", Load: 0.5,
		Timing: "t", Runs: 3, GapNs: 5, WarpNs: 7, Seed: 11,
		ServerDelayNs: 13, LinkRateBps: 17, PropagationNs: 19,
		LossRate: 0.25, ServerParseCostNs: 23, Faults: "f",
	}
	const wantCanonical = "browsermetric cell key v1\nsalt=s\nmethod=m\nbrowser=b\nos=o\nload=0x1p-01\ntiming=t\nruns=3\ngap_ns=5\nwarp_ns=7\nseed=11\nserver_delay_ns=13\nlink_rate_bps=17\npropagation_ns=19\nloss_rate=0x1p-02\nserver_parse_cost_ns=23\nfaults=f\n"
	if got := string(k.Canonical()); got != wantCanonical {
		t.Errorf("Canonical() = %q, want %q", got, wantCanonical)
	}
	if got, want := k.Hash(), "c02666bc93bf3a0a9ee208c03008451f4a7589afbf5d8d3b80195e5adc3f65b1"; got != want {
		t.Errorf("Hash() = %s, want %s", got, want)
	}

	// Extreme values: negative and minimum integers, a subnormal-adjacent
	// float and empty strings.
	k = Key{Salt: "bmsweep-v2", Load: -1.0 / 3, LossRate: 1e-300, Runs: -4, GapNs: math.MinInt64, Seed: math.MaxInt64}
	if got, want := k.Hash(), "106948dfd355e84506ee2b0ab448b444559c690710904022a81a165edf2e2ea9"; got != want {
		t.Errorf("extreme Key: Hash() = %s, want %s (canonical %q)", got, want, k.Canonical())
	}

	cfg := core.Config{
		Method:  methods.WebSocket,
		Profile: browser.Lookup(browser.Firefox, browser.Ubuntu).WithLoad(0.3),
		Timing:  browser.NanoTime,
		Runs:    1000,
		Gap:     2 * time.Second,
		Testbed: testbed.Config{LossRate: 0.01, Faults: faults.BurstyWiFi, Seed: 1234},
	}
	k = KeyFromConfig(cfg, "")
	const wantCfg = "browsermetric cell key v1\nsalt=bmsweep-v2\nmethod=WebSocket\nbrowser=Firefox\nos=Ubuntu\nload=0x1.3333333333333p-02\ntiming=System.nanoTime\nruns=1000\ngap_ns=2000000000\nwarp_ns=0\nseed=1234\nserver_delay_ns=50000000\nlink_rate_bps=100000000\npropagation_ns=5000\nloss_rate=0x1.47ae147ae147bp-07\nserver_parse_cost_ns=0\nfaults=burstywifi\n"
	if got := string(k.Canonical()); got != wantCfg {
		t.Errorf("KeyFromConfig canonical = %q, want %q", got, wantCfg)
	}
	if got, want := k.Hash(), "1dcb79df6a4e207446b55df505b1b4306b402e765ac806cbb2dd0329e5d9aab0"; got != want {
		t.Errorf("KeyFromConfig hash = %s, want %s", got, want)
	}
}

// TestKeyHashAllocs guards the hash every cache lookup computes: the
// canonical bytes are rendered into stack scratch, so the returned
// string is the one heap object (measured 1 with 1 of slack, as
// warm_alloc_test.go sets its ceilings).
func TestKeyHashAllocs(t *testing.T) {
	k := KeyFromConfig(baseKeyConfig(), "")
	if allocs := testing.AllocsPerRun(100, func() { _ = k.Hash() }); allocs > 2 {
		t.Errorf("Key.Hash allocated %.0f objects, ceiling 2", allocs)
	}
}
