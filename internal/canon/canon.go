// Package canon holds the canonical encodings. The binary one carries the
// simulation state the memo tier persists — machine snapshots and
// governor state: big-endian integers, IEEE-754 bit patterns for floats
// and one 0 or 1 byte per flag. Equal values encode to equal bytes, and a
// Reader refuses what a Writer never writes: a truncation, a flag byte
// other than 0 or 1, a length the remaining bytes cannot hold, or
// trailing bytes. The JSON one (json.go) writes the spec's canonical
// bytes and the run report byte-identically to encoding/json, and reads
// the plain JSON specs arrive in.
package canon

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Writer appends values to B.
type Writer struct{ B []byte }

func (w *Writer) Bytes(p []byte) { w.B = append(w.B, p...) }
func (w *Writer) U8(v uint8)     { w.B = append(w.B, v) }
func (w *Writer) U32(v uint32)   { w.B = binary.BigEndian.AppendUint32(w.B, v) }
func (w *Writer) U64(v uint64)   { w.B = binary.BigEndian.AppendUint64(w.B, v) }
func (w *Writer) I64(v int64)    { w.U64(uint64(v)) }
func (w *Writer) F64(v float64)  { w.U64(math.Float64bits(v)) }

// Flag writes v as one byte, 1 or 0.
func (w *Writer) Flag(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Reader reads a Writer's values back. The first defect latches an error
// that names the layout, and every later read returns zero.
type Reader struct {
	b    []byte
	what string
	err  error
}

// NewReader reads b, naming the layout what (such as "machine:
// snapshot") in its errors.
func NewReader(b []byte, what string) *Reader { return &Reader{b: b, what: what} }

// Fail latches an error unless one is latched already.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(r.what+" "+format, args...)
	}
}

// Err returns the latched error.
func (r *Reader) Err() error { return r.err }

// Done returns the latched error, or an error when bytes remain unread.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) != 0 {
		r.Fail("has %d trailing bytes", len(r.b))
	}
	return r.err
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.Fail("is truncated mid-field")
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *Reader) U8() uint8 {
	if p := r.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (r *Reader) U32() uint32 {
	if p := r.take(4); p != nil {
		return binary.BigEndian.Uint32(p)
	}
	return 0
}

func (r *Reader) U64() uint64 {
	if p := r.take(8); p != nil {
		return binary.BigEndian.Uint64(p)
	}
	return 0
}

func (r *Reader) I64() int64   { return int64(r.U64()) }
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Flag reads a flag byte, refusing any value but 0 and 1.
func (r *Reader) Flag() bool {
	v := r.U8()
	if v > 1 {
		r.Fail("has flag byte %d, not 0 or 1", v)
	}
	return v == 1
}

// Count reads a 32-bit table length and refuses one whose elements, at
// least minLen bytes each, the remaining bytes cannot hold, so a forged
// length cannot drive a large allocation.
func (r *Reader) Count(minLen int) int {
	n := int(r.U32())
	if r.err == nil && n > len(r.b)/minLen {
		r.Fail("claims %d entries in %d bytes", n, len(r.b))
	}
	if r.err != nil {
		return 0
	}
	return n
}
