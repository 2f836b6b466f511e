package frame

import (
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"
)

// TestReaderAccessors reads every accessor on exact input, then on
// input one byte short, then (for the capped ones) over its cap. A
// short or over-cap read must return the zero value and leave the end
// check reporting ErrCorrupt.
func TestReaderAccessors(t *testing.T) {
	cases := []struct {
		name string
		enc  []byte
		read func(r *Reader) any
		want any
	}{
		{"u8", []byte{0xab}, func(r *Reader) any { return r.U8() }, byte(0xab)},
		{"u64", binary.LittleEndian.AppendUint64(nil, 1<<63|7), func(r *Reader) any { return r.U64() }, uint64(1<<63 | 7)},
		{"f64", AppendF64(nil, -2.5), func(r *Reader) any { return r.F64() }, -2.5},
		{"bool", AppendBool(nil, true), func(r *Reader) any { return r.Bool() }, true},
		{"uvarint", binary.AppendUvarint(nil, 300), func(r *Reader) any { return r.Uvarint() }, uint64(300)},
		{"string", AppendString(nil, "abc"), func(r *Reader) any { return r.String(3) }, "abc"},
		{"bytes", AppendString(nil, "xyz"), func(r *Reader) any { return string(r.Bytes(3)) }, "xyz"},
		{"count", append(binary.AppendUvarint(nil, 2), make([]byte, 8)...), func(r *Reader) any { return r.Count(2, 4) }, 2},
	}
	for _, c := range cases {
		r := NewReader(c.enc)
		if got := c.read(&r); got != c.want {
			t.Errorf("%s: exact read = %v, want %v", c.name, got, c.want)
		}
		if c.name == "count" {
			r.U64() // the elements the count announced
		}
		if err := r.End(); err != nil {
			t.Errorf("%s: exact read: %v", c.name, err)
		}
		short := c.enc[:len(c.enc)-1]
		r = NewReader(short)
		got := c.read(&r)
		if err := r.End(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: short read: End = %v, want ErrCorrupt", c.name, err)
		}
		if c.name != "count" && got == c.want {
			t.Errorf("%s: short read returned the value", c.name)
		}
	}

	over := []struct {
		name string
		enc  []byte
		read func(r *Reader)
	}{
		{"string", AppendString(nil, "abcd"), func(r *Reader) { r.String(3) }},
		{"bytes", AppendString(nil, "abcd"), func(r *Reader) { r.Bytes(3) }},
		{"count", append(binary.AppendUvarint(nil, 3), 0, 0, 0), func(r *Reader) { r.Count(2, 1) }},
		{"bool", []byte{2}, func(r *Reader) { r.Bool() }},
	}
	for _, c := range over {
		r := NewReader(c.enc)
		c.read(&r)
		if err := r.End(); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "offset 0") {
			t.Errorf("%s over cap: End = %v, want ErrCorrupt at offset 0", c.name, err)
		}
	}
}

// TestReaderRejectsNonMinimalUvarint: 1 written as 0x81 0x00 (and 0 as
// 0x80 0x00) decodes to the same value under binary.Uvarint, so a
// reader that took it would accept two encodings of one payload.
func TestReaderRejectsNonMinimalUvarint(t *testing.T) {
	for _, enc := range [][]byte{{0x81, 0x00}, {0x80, 0x00}, {0xac, 0x82, 0x00}} {
		r := NewReader(enc)
		if v := r.Uvarint(); v != 0 {
			t.Errorf("% x: read %d", enc, v)
		}
		if err := r.End(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("% x: End = %v, want ErrCorrupt", enc, err)
		}
	}
	// The minimal forms of the same values are accepted.
	for _, v := range []uint64{0, 1, 127, 128, 300, math.MaxUint64} {
		r := NewReader(binary.AppendUvarint(nil, v))
		if got := r.Uvarint(); got != v || r.End() != nil {
			t.Errorf("minimal %d: read %d, End %v", v, got, r.End())
		}
	}
}

// TestReaderCountWraparound: 768614336404564651*24 == 2^64+8, so a bound
// that multiplied the count by the element size would see 8 and pass
// with 8 bytes left. Count divides instead.
func TestReaderCountWraparound(t *testing.T) {
	enc := append(binary.AppendUvarint(nil, 768614336404564651), make([]byte, 8)...)
	r := NewReader(enc)
	if n := r.Count(math.MaxInt, 24); n != 0 {
		t.Fatalf("Count = %d", n)
	}
	if err := r.End(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("End = %v, want ErrCorrupt", err)
	}
}

// TestReaderFirstFailureSticks: after a failed read every later read
// returns zero, even where bytes would have satisfied it, and both Err
// and End report the first failure's offset.
func TestReaderFirstFailureSticks(t *testing.T) {
	enc := []byte{7, 2}
	enc = binary.LittleEndian.AppendUint64(enc, 99)
	enc = AppendString(enc, "later")
	r := NewReader(enc)
	if r.U8() != 7 || r.Err() != nil {
		t.Fatal("first read failed")
	}
	if r.Bool() {
		t.Fatal("bool 2 read as true")
	}
	first := r.Err()
	if !errors.Is(first, ErrCorrupt) || !strings.Contains(first.Error(), "offset 1") {
		t.Fatalf("Err = %v, want ErrCorrupt at offset 1", first)
	}
	if r.U64() != 0 || r.String(16) != "" || r.U8() != 0 || r.Uvarint() != 0 || r.Count(9, 1) != 0 {
		t.Fatal("read after failure returned a value")
	}
	if r.F64() != 0 || r.Bool() || r.Bytes(16) != nil {
		t.Fatal("read after failure returned a value")
	}
	if err := r.End(); err != first {
		t.Fatalf("End = %v, want the first failure %v", err, first)
	}
}

func TestReaderTrailingBytes(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	r.U8()
	if err := r.End(); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "2 trailing") {
		t.Fatalf("End = %v, want 2 trailing bytes", err)
	}
}
