package canon

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
	"unsafe"
)

// The JSON encoding: encoding/json's output rules, adapted from its
// encode.go, for the hand-written writers of the spec's canonical bytes
// and the run report, and a reader of the plain JSON that those writers
// and encoding/json emit for plain data. Tests hold every writer's bytes
// equal to encoding/json's.

// JSONWriter appends compact JSON to B with encoding/json's rules for
// strings and floats. A NaN or ±Inf float, which JSON cannot hold,
// appends nothing and latches encoding/json's own error in Err; the
// caller checks Err once the value is written.
type JSONWriter struct {
	B   []byte
	Err error
}

// Raw appends s verbatim.
func (w *JSONWriter) Raw(s string) { w.B = append(w.B, s...) }

// Field starts an object member: a comma unless the member is the
// object's first, then "name": (name must need no escaping).
func (w *JSONWriter) Field(name string) {
	if n := len(w.B); n > 0 && w.B[n-1] != '{' {
		w.B = append(w.B, ',')
	}
	w.B = append(w.B, '"')
	w.B = append(w.B, name...)
	w.B = append(w.B, '"', ':')
}

// String appends s as a JSON string (see appendJSONString).
func (w *JSONWriter) String(s string) { w.B = appendJSONString(w.B, s) }

// Int appends v in decimal.
func (w *JSONWriter) Int(v int64) { w.B = strconv.AppendInt(w.B, v, 10) }

// Float appends f as encoding/json writes a float64 (see appendJSONFloat).
func (w *JSONWriter) Float(f float64) {
	var err error
	if w.B, err = appendJSONFloat(w.B, f); err != nil && w.Err == nil {
		w.Err = err
	}
}

// appendJSONString appends s as a JSON string exactly as encoding/json
// writes it with HTML escaping on, as json.Marshal and json.Encoder do by
// default: '"' and '\' backslashed; \b, \f, \n, \r and \t by name and
// other control bytes as \u00XX; <, > and & as \u003c, \u003e and
// \u0026; U+2028 and U+2029 as \u2028 and \u2029; and each byte of
// invalid UTF-8 as \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendJSONFloat appends f as encoding/json writes a float64: the
// shortest decimal that reads back as f, in exponent form below 1e-6 and
// from 1e21 in magnitude, with the exponent unpadded (1e-7, not 1e-07).
// JSON has no NaN or ±Inf; for those it appends nothing and returns
// encoding/json's own error.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	// A nonzero integral float below 2^53 is exactly an int64 whose
	// decimal is also the shortest that reads back as f: the same bytes
	// without the shortest-digits search.
	if f == math.Trunc(f) && f != 0 && math.Abs(f) < 1<<53 {
		return strconv.AppendInt(dst, int64(f), 10), nil
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// PlainJSON reads the plain JSON that encoders emit for plain data:
// objects and arrays of strings and numbers. A string must be valid
// UTF-8 with no escape and no control byte; a number must follow JSON's
// grammar, and Int takes digits only; null, true and false are outside
// it. The first byte outside that subset latches failure, after which
// every read returns a zero value, so a caller reads a whole document
// and then asks End. Failing is no verdict on the document: its caller
// hands it to encoding/json, which decides.
type PlainJSON struct {
	b    []byte
	i    int
	fail bool
}

// NewPlainJSON reads b.
func NewPlainJSON(b []byte) *PlainJSON { return &PlainJSON{b: b} }

// End reports whether everything read so far was in the subset and only
// whitespace follows it.
func (p *PlainJSON) End() bool {
	p.space()
	return !p.fail && p.i == len(p.b)
}

func (p *PlainJSON) space() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// peek returns the next byte, or 0 (which starts no JSON token) at the
// end.
func (p *PlainJSON) peek() byte {
	if p.i < len(p.b) {
		return p.b[p.i]
	}
	return 0
}

// Open consumes c, '{' or '[', after any whitespace.
func (p *PlainJSON) Open(c byte) bool {
	p.space()
	if p.fail || p.peek() != c {
		p.fail = true
		return false
	}
	p.i++
	return true
}

// Next reports whether the object or array opened by the last Open has
// another member, consuming the comma before it, or the closing byte
// close after the last. first is true on the first call after Open.
func (p *PlainJSON) Next(close byte, first bool) bool {
	p.space()
	switch c := p.peek(); {
	case p.fail:
		return false
	case c == close:
		p.i++
		return false
	case first:
		return true
	case c == ',':
		p.i++
		return true
	}
	p.fail = true
	return false
}

// Field reads an object member's name and its colon, and returns the
// entry of names it equals. A name not in names, or one already marked
// in seen (bit i for names[i]), fails: encoding/json matches names
// case-insensitively and lets a repeated one override, and either calls
// for its reading.
func (p *PlainJSON) Field(names []string, seen *uint64) string {
	name := p.raw()
	p.space()
	if p.peek() != ':' {
		p.fail = true
	}
	p.i++
	for i, n := range names {
		if string(name) == n && *seen&(1<<i) == 0 && !p.fail {
			*seen |= 1 << i
			return n
		}
	}
	p.fail = true
	return ""
}

// raw reads a string and returns its bytes between the quotes.
func (p *PlainJSON) raw() []byte {
	if !p.Open('"') {
		return nil
	}
	start, ascii := p.i, true
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			s := p.b[start:p.i]
			p.i++
			if !ascii && !utf8.Valid(s) {
				p.fail = true
			}
			return s
		case c < ' ' || c == '\\':
			p.fail = true
			return nil
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	p.fail = true
	return nil
}

// String reads a string.
func (p *PlainJSON) String() string { return string(p.raw()) }

// number reads a number in JSON's grammar, its integer part only when
// intOnly; a fraction or exponent after an integer then fails the next
// read.
func (p *PlainJSON) number(intOnly bool) string {
	p.space()
	start := p.i
	if p.peek() == '-' {
		p.i++
	}
	if p.peek() == '0' {
		p.i++
	} else if !p.digits() {
		return ""
	}
	if !intOnly {
		if p.peek() == '.' {
			p.i++
			if !p.digits() {
				return ""
			}
		}
		if c := p.peek(); c == 'e' || c == 'E' {
			p.i++
			if c := p.peek(); c == '+' || c == '-' {
				p.i++
			}
			if !p.digits() {
				return ""
			}
		}
	}
	if p.fail {
		return ""
	}
	// The string aliases the document only while strconv parses it.
	return unsafe.String(&p.b[start], p.i-start)
}

// digits consumes one or more decimal digits.
func (p *PlainJSON) digits() bool {
	start := p.i
	for c := p.peek(); '0' <= c && c <= '9'; c = p.peek() {
		p.i++
	}
	if p.i == start {
		p.fail = true
	}
	return !p.fail
}

// Int reads an integer that fits in bits bits, as encoding/json decodes
// one into an integer of that size.
func (p *PlainJSON) Int(bits int) int64 {
	s := p.number(true)
	if p.fail {
		return 0
	}
	n, err := strconv.ParseInt(s, 10, bits)
	if err != nil {
		p.fail = true
	}
	return n
}

// Float reads a number as encoding/json decodes one into a float64.
func (p *PlainJSON) Float() float64 {
	s := p.number(false)
	if p.fail {
		return 0
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		p.fail = true
	}
	return f
}
