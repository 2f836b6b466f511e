// Package sweep turns the study scheduler into a resumable, cache-backed
// sweep engine. Each cell of a methods × browsers × fault-profiles matrix
// is content-addressed by the SHA-256 of its full configuration (plus a
// code-version salt) and its samples are persisted byte-exactly on disk,
// each file written atomically and self-checked on load. That cache is
// the sweep's only state: a killed sweep re-run on the same directory
// replays the cells it finished and computes the rest. The repo's determinism contract — byte-
// identical exports at any worker count — is what makes the cache sound,
// and the package's tests extend that contract to "cached replay is
// bit-identical to recomputation".
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"github.com/browsermetric/browsermetric/internal/core"
)

// DefaultSalt versions the simulation semantics and the cell file format
// baked into cached cells. Bump it whenever a change anywhere in the
// simulator, methods, browser models, or fault profiles can alter a
// cell's samples, or the cell file format changes: old entries then miss
// (they hash under the old salt) and are recomputed rather than silently
// replayed stale or counted as corrupt.
const DefaultSalt = "bmsweep-v2"

// Key is the flattened, canonical identity of one study cell: every field
// of core.Config and testbed.Config that can influence a measurement,
// plus the code-version salt. Observational fields (Tracer, Metrics) are
// deliberately absent — they cannot change any simulated outcome.
//
// TestKeyCoversEveryConfigField reflectively mutates every field of the
// config structs and asserts the key changes, so a new knob that is not
// threaded through KeyFromConfig fails the build's tests instead of
// silently aliasing distinct cells.
type Key struct {
	Salt    string
	Method  string
	Browser string
	OS      string
	// Load is the profile's background system-load factor: a WithLoad
	// variant measures different overheads than its idle base profile.
	Load   float64
	Timing string
	Runs   int
	GapNs  int64
	WarpNs int64
	Seed   int64

	// Testbed knobs (normalized: zero means the paper default, hashed as
	// that default so the two spellings name the same cell).
	ServerDelayNs     int64
	LinkRateBps       int64
	PropagationNs     int64
	LossRate          float64
	ServerParseCostNs int64
	Faults            string
}

// KeyFromConfig flattens a cell config into its canonical Key. The config
// is normalized first, so zero-valued knobs and their explicit paper
// defaults hash identically — exactly the equivalence RunContext applies
// when executing.
func KeyFromConfig(cfg core.Config, salt string) Key {
	if salt == "" {
		salt = DefaultSalt
	}
	cfg.Normalize()
	tb := cfg.Testbed
	tb.Normalize()
	k := Key{
		Salt:              salt,
		Method:            cfg.Method.String(),
		Timing:            cfg.Timing.String(),
		Runs:              cfg.Runs,
		GapNs:             int64(cfg.Gap),
		WarpNs:            int64(cfg.Warp),
		Seed:              tb.Seed,
		ServerDelayNs:     int64(tb.ServerDelay),
		LinkRateBps:       tb.LinkRate,
		PropagationNs:     int64(tb.Propagation),
		LossRate:          tb.LossRate,
		ServerParseCostNs: int64(tb.ServerParseCost),
		Faults:            tb.Faults.String(),
	}
	if cfg.Profile != nil {
		k.Browser = cfg.Profile.Browser.String()
		k.OS = cfg.Profile.OS.String()
		k.Load = cfg.Profile.Load()
	}
	return k
}

// Canonical renders the key as its canonical byte serialization: a fixed
// header and one name=value line per field, in declaration order. Floats
// are hex-formatted ('x'), which round-trips every bit of the float64 —
// two keys serialize identically iff they are equal.
//
// The 512 bytes of capacity hold any key of the study's own names, and
// Canonical is small enough to inline, so a caller that does not keep
// the bytes (Hash) serializes into stack scratch.
func (k Key) Canonical() []byte { return k.appendCanonical(make([]byte, 0, 512)) }

// appendCanonical appends the canonical serialization to b.
func (k *Key) appendCanonical(b []byte) []byte {
	b = append(b, "browsermetric cell key v1\n"...)
	b = appendField(b, "salt=", k.Salt)
	b = appendField(b, "method=", k.Method)
	b = appendField(b, "browser=", k.Browser)
	b = appendField(b, "os=", k.OS)
	b = appendFloat(b, "load=", k.Load)
	b = appendField(b, "timing=", k.Timing)
	b = appendInt(b, "runs=", int64(k.Runs))
	b = appendInt(b, "gap_ns=", k.GapNs)
	b = appendInt(b, "warp_ns=", k.WarpNs)
	b = appendInt(b, "seed=", k.Seed)
	b = appendInt(b, "server_delay_ns=", k.ServerDelayNs)
	b = appendInt(b, "link_rate_bps=", k.LinkRateBps)
	b = appendInt(b, "propagation_ns=", k.PropagationNs)
	b = appendFloat(b, "loss_rate=", k.LossRate)
	b = appendInt(b, "server_parse_cost_ns=", k.ServerParseCostNs)
	b = appendField(b, "faults=", k.Faults)
	return b
}

func appendField(b []byte, name, val string) []byte {
	return append(append(append(b, name...), val...), '\n')
}

func appendInt(b []byte, name string, v int64) []byte {
	return append(strconv.AppendInt(append(b, name...), v, 10), '\n')
}

func appendFloat(b []byte, name string, v float64) []byte {
	return append(strconv.AppendFloat(append(b, name...), v, 'x', -1, 64), '\n')
}

// Hash returns the cell's content address: the lowercase hex SHA-256 of
// the canonical serialization.
func (k Key) Hash() string {
	var scratch [2 * sha256.Size]byte
	return string(k.appendHash(scratch[:0]))
}

// appendHash appends the content address to b, allocating nothing
// beyond what b needs.
func (k *Key) appendHash(b []byte) []byte {
	sum := sha256.Sum256(k.Canonical())
	n := len(b)
	b = append(b, make([]byte, hex.EncodedLen(len(sum)))...)
	hex.Encode(b[n:], sum[:])
	return b
}

// String identifies the cell for logs: "<method>/<browser> (<os>)/<faults>@<hash8>".
func (k Key) String() string {
	return fmt.Sprintf("%s/%s (%s)/%s@%s", k.Method, k.Browser, k.OS, k.Faults, k.Hash()[:8])
}
