package canon

import (
	"bytes"
	"math"
	"testing"
)

// TestRoundTripAndRefusals: a Reader reads back exactly what a Writer
// wrote, and refuses a truncation, trailing bytes, a flag byte other
// than 0 or 1, and a length the remaining bytes cannot hold.
func TestRoundTripAndRefusals(t *testing.T) {
	var w Writer
	w.Bytes([]byte("ab"))
	w.U8(7)
	w.U32(3)
	w.U64(math.MaxUint64)
	w.I64(-2)
	w.F64(math.Copysign(0, -1))
	w.Flag(true)
	w.Flag(false)
	want := []byte{'a', 'b', 7, 0, 0, 0, 3, 255, 255, 255, 255, 255, 255, 255, 255,
		255, 255, 255, 255, 255, 255, 255, 254, 128, 0, 0, 0, 0, 0, 0, 0, 1, 0}
	if !bytes.Equal(w.B, want) {
		t.Fatalf("wrote % x, want % x", w.B, want)
	}
	r := NewReader(w.B[2:], "test")
	if r.U8() != 7 || r.Count(1) != 3 || r.U64() != math.MaxUint64 || r.I64() != -2 ||
		math.Float64bits(r.F64()) != 1<<63 || !r.Flag() || r.Flag() || r.Done() != nil {
		t.Fatalf("read back differs: %v", r.Err())
	}

	for _, tc := range []struct {
		name string
		b    []byte
		read func(r *Reader)
	}{
		{"truncated", []byte{0, 0, 0}, func(r *Reader) { r.U32() }},
		{"trailing byte", []byte{1, 2}, func(r *Reader) { r.U8() }},
		{"flag byte 2", []byte{2}, func(r *Reader) { r.Flag() }},
		{"count past the end", []byte{0, 0, 0, 2, 0, 0, 0}, func(r *Reader) { r.Count(4) }},
	} {
		r := NewReader(tc.b, "test")
		tc.read(r)
		if r.Done() == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
