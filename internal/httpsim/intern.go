package httpsim

// Interner deduplicates the small, highly repetitive string vocabulary of
// HTTP traffic (methods, header keys, common values). Interning a byte
// slice whose string is already known costs zero allocations — the
// map lookup on string(b) is optimized by the compiler to not materialize
// the string — so a steady-state parse of recurring messages allocates
// nothing for strings.
//
// The interner is bounded: once it holds maxInterned strings, unknown
// values are copied without being kept. A long-lived interner (a testbed
// service reused cell after cell) therefore cannot grow with traffic whose
// values vary, such as per-probe request targets. A nil *Interner simply
// copies, so every call site works without one attached.
type Interner struct {
	m map[string]string
}

// maxInterned bounds an Interner. A testbed's traffic interns a few dozen
// distinct strings.
const maxInterned = 256

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{m: make(map[string]string, 32)}
}

// Intern returns a string equal to b, reusing a previously returned
// string when one exists. A nil interner returns a fresh copy.
func (in *Interner) Intern(b []byte) string {
	if in == nil {
		return string(b)
	}
	if s, ok := in.m[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(in.m) < maxInterned {
		in.m[s] = s
	}
	return s
}
