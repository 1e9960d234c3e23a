package wire

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// record is a layout that uses every primitive.
type record struct {
	u16   uint16
	u32   uint32
	u64   uint64
	i32   int
	i64   int64
	n     int
	f     float64
	b     bool
	s1    string
	s2    string
	b4    []byte
	list  []float64
	rest  string
	fixed []uint64
}

func (r *record) walk(c *Codec) {
	c.U16(&r.u16)
	c.U32(&r.u32)
	c.U64(&r.u64)
	c.Int(&r.i32, 4)
	c.I64(&r.i64)
	c.Int(&r.n, 8)
	c.F64(&r.f)
	c.Bool(&r.b)
	c.Str(&r.s1, 1)
	c.Str(&r.s2, 2)
	c.Bytes(&r.b4, 4)
	List(c, &r.list, 8, c.F64)
	Each(c, &r.fixed, 2, c.U64)
	c.Str(&r.rest, 0)
}

func TestRoundTrip(t *testing.T) {
	in := record{
		u16: 0xBEEF, u32: 0xDEADBEEF, u64: math.MaxUint64 - 3,
		i32: -7, i64: math.MinInt64, n: -1, f: math.Copysign(0, -1), b: true,
		s1: "BI", s2: "node", b4: []byte{1, 2, 3}, list: []float64{300, math.Inf(1)},
		rest: "the rest", fixed: []uint64{1, 2},
	}
	w := Writer([]byte("pre"))
	in.walk(&w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	raw := w.Written()
	if string(raw[:3]) != "pre" {
		t.Fatalf("writer dropped its dst prefix: %q", raw[:3])
	}
	var out record
	r := Reader(raw[3:])
	out.walk(&r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	again := Writer(nil)
	out.walk(&again)
	if !bytes.Equal(again.Written(), raw[3:]) {
		t.Fatalf("decoded record re-encodes to\n%x\nwant\n%x", again.Written(), raw[3:])
	}
	if out.i64 != in.i64 || out.s2 != in.s2 || math.Signbit(out.f) != true || out.rest != in.rest {
		t.Fatalf("decoded %+v, want %+v", out, in)
	}
}

func TestReadErrors(t *testing.T) {
	var full record
	w := Writer(nil)
	full.walk(&w)
	raw := w.Written()

	// Every truncation fails, and the sticky error leaves zeros behind.
	for n := range len(raw) {
		var r record
		c := Reader(raw[:n])
		r.walk(&c)
		if c.Close() == nil {
			t.Fatalf("a %d-byte prefix of a %d-byte record decoded", n, len(raw))
		}
	}

	var b bool
	c := Reader([]byte{2})
	c.Bool(&b)
	if c.Close() == nil {
		t.Error("bool byte 2 decoded")
	}

	var list []uint64
	c = Reader([]byte{3, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	List(&c, &list, 8, c.U64)
	if c.Close() == nil || list != nil {
		t.Errorf("a count beyond the payload decoded %v", list)
	}

	var x uint16
	c = Reader([]byte{1, 2, 3})
	c.U16(&x)
	if err := c.Close(); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing byte: err = %v", err)
	}
}

func TestWriteRejectsOversizedPrefix(t *testing.T) {
	for _, tc := range []struct {
		n, size int
	}{{1, 256}, {2, 1 << 16}} {
		s := strings.Repeat("x", tc.size)
		c := Writer(nil)
		c.Str(&s, tc.n)
		if c.Err() == nil {
			t.Errorf("a %d-byte string behind a %d-byte prefix encoded", tc.size, tc.n)
		}
		s = s[1:]
		c = Writer(nil)
		c.Str(&s, tc.n)
		if c.Err() != nil {
			t.Errorf("a %d-byte string behind a %d-byte prefix: %v", tc.size-1, tc.n, c.Err())
		}
	}
}

func TestSealed(t *testing.T) {
	v := uint64(42)
	w := Sealed("TEST", 8)
	w.U64(&v)
	blob, err := w.Seal()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(blob, "TEST")
	if err != nil {
		t.Fatal(err)
	}
	var got uint64
	r.U64(&got)
	if err := r.Close(); err != nil || got != v {
		t.Fatalf("opened %d (%v), want %d", got, err, v)
	}

	flip := bytes.Clone(blob)
	flip[5] ^= 1
	for name, bad := range map[string][]byte{
		"short":     blob[:7],
		"bad magic": append([]byte("XEST"), blob[4:]...),
		"bit flip":  flip,
		"trailing":  append(bytes.Clone(blob), 0),
	} {
		if _, err := Open(bad, "TEST"); err == nil {
			t.Errorf("%s: opened", name)
		}
	}

	w = Sealed("TEST", 0)
	big := strings.Repeat("x", 256)
	w.Str(&big, 1)
	if _, err := w.Seal(); err == nil {
		t.Error("sealed a blob whose walk failed")
	}
}
