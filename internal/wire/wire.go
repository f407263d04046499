// Package wire holds the primitives of the repository's two
// reflection-free JSON codecs: sink's result lines and agg's summaries.
// Each codec writes one canonical layout, byte for byte what
// encoding/json writes for its type, and reads that layout back
// directly, handing any other input to encoding/json.
//
// Parser reads a canonical layout. Its first mismatch marks it bad,
// after which every read is a no-op returning a zero value, so a codec
// reads a whole layout without checking each step and asks Complete once
// at the end. The Append functions format values as encoding/json does.
package wire

import (
	"bytes"
	"math"
	"strconv"
	"unicode/utf8"
)

// Parser reads a canonical JSON layout. The zero value reads an empty
// input; NewParser starts one on a buffer.
type Parser struct {
	b   []byte
	i   int
	bad bool
}

// NewParser returns a parser positioned at the start of b.
func NewParser(b []byte) Parser { return Parser{b: b} }

// Complete reports whether every read so far matched and the input is
// used up.
func (p *Parser) Complete() bool { return !p.bad && p.i == len(p.b) }

// Next consumes s if the input continues with it.
func (p *Parser) Next(s string) bool {
	if p.bad || len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

// Lit consumes s, which the input must continue with.
func (p *Parser) Lit(s string) {
	if !p.Next(s) {
		p.bad = true
	}
}

// Bool reads true or false.
func (p *Parser) Bool() bool {
	if p.Next("true") {
		return true
	}
	p.Lit("false")
	return false
}

// Str reads a string of printable ASCII without escapes; anything else
// is a mismatch, left to encoding/json.
func (p *Parser) Str() string {
	if !p.Next(`"`) {
		p.bad = true
		return ""
	}
	for j := p.i; j < len(p.b); j++ {
		switch c := p.b[j]; {
		case c == '"':
			s := string(p.b[p.i:j])
			p.i = j + 1
			return s
		case c < ' ' || c == '\\' || c >= utf8.RuneSelf:
			p.bad = true
			return ""
		}
	}
	p.bad = true
	return ""
}

// Int reads a JSON integer that fits T. A fraction, an exponent, a
// leading zero or more than 19 digits is a mismatch.
func Int[T int | int32 | int64](p *Parser) T {
	if p.bad {
		return 0
	}
	v, n := scanInt(p.b[p.i:])
	if n == 0 || int64(T(v)) != v {
		p.bad = true
		return 0
	}
	p.i += n
	return T(v)
}

// scanInt reads the integer b starts with, under Int's rules, and
// returns it with its length in bytes; the length is 0 on a mismatch.
func scanInt(b []byte) (int64, int) {
	start := 0
	if len(b) > 0 && b[0] == '-' {
		start = 1
	}
	j := start
	var u uint64 // wraps past 19 digits, which are refused below
	for ; j < len(b); j++ {
		d := b[j] - '0'
		if d > 9 {
			break
		}
		u = u*10 + uint64(d)
	}
	switch n := j - start; {
	case n == 0, n > 19, n > 1 && b[start] == '0': // no digits, too many, or a leading zero
	case start == 1 && u <= 1<<63:
		return -int64(u), j
	case start == 0 && u <= math.MaxInt64:
		return int64(u), j
	}
	return 0, 0
}

// Float reads a number in JSON's grammar and converts it as
// encoding/json does; an out-of-range value is a mismatch.
func (p *Parser) Float() float64 {
	if p.bad {
		return 0
	}
	b := p.b[p.i:]
	digits := func(j int) int {
		for j < len(b) && '0' <= b[j] && b[j] <= '9' {
			j++
		}
		return j
	}
	j := 0
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case j < len(b) && '1' <= b[j] && b[j] <= '9':
		j = digits(j)
	default:
		p.bad = true
		return 0
	}
	if j < len(b) && b[j] == '.' {
		if k := digits(j + 1); k > j+1 {
			j = k
		} else {
			p.bad = true
			return 0
		}
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		j++
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		if k := digits(j); k > j {
			j = k
		} else {
			p.bad = true
			return 0
		}
	}
	f, err := strconv.ParseFloat(string(b[:j]), 64)
	if err != nil {
		p.bad = true
		return 0
	}
	p.i += j
	return f
}

// open reads the start of an array and reports whether elements follow,
// returning the slice to read them into. null is a nil slice and [] an
// empty non-nil one, as encoding/json decodes them; a mismatch is nil.
func open[T any](p *Parser) ([]T, bool) {
	if p.bad || p.Next("null") {
		return nil, false
	}
	p.Lit("[")
	if p.bad {
		return nil, false
	}
	if p.Next("]") {
		return []T{}, false
	}
	return make([]T, 0, p.capHint()), true
}

// Array reads a JSON array of elem values: null is a nil slice and [] an
// empty non-nil one, as encoding/json decodes them.
func Array[T any](p *Parser, elem func(*Parser) T) []T {
	xs, more := open[T](p)
	if !more {
		return xs
	}
	for {
		xs = append(xs, elem(p))
		if p.bad || !p.Next(",") {
			break
		}
	}
	p.Lit("]")
	return xs
}

// Ints reads a JSON array of integers that fit T, each under Int's
// rules, in one loop: no call through a function value per element.
// null is a nil slice and [] an empty non-nil one.
func Ints[T int | int32 | int64](p *Parser) []T {
	xs, more := open[T](p)
	if !more {
		return xs
	}
	b, i := p.b, p.i
	for {
		v, n := scanInt(b[i:])
		if n == 0 || int64(T(v)) != v {
			p.bad = true
			return nil
		}
		xs = append(xs, T(v))
		i += n
		if i == len(b) || b[i] != ',' {
			break
		}
		i++
	}
	p.i = i
	p.Lit("]")
	return xs
}

// capHint sizes the array about to be read: one more than the commas
// before the next ']'. That is exact for an array of numbers, and never
// more than half the bytes scanned, so hostile input cannot inflate it.
func (p *Parser) capHint() int {
	seg := p.b[p.i:]
	if end := bytes.IndexByte(seg, ']'); end >= 0 {
		seg = seg[:end]
	}
	return min(bytes.Count(seg, []byte{','})+1, len(seg)/2+1)
}

// AppendArray appends xs as a JSON array, or null for a nil slice.
func AppendArray[T any](dst []byte, xs []T, elem func([]byte, T) []byte) []byte {
	if xs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = elem(dst, x)
	}
	return append(dst, ']')
}

// AppendInt appends x in decimal.
func AppendInt[T int32 | int64](dst []byte, x T) []byte {
	return strconv.AppendInt(dst, int64(x), 10)
}

// AppendFloat formats a finite f as encoding/json does: shortest
// round-trip digits, in exponent form only below 1e-6 or from 1e21 in
// magnitude, with a one-digit negative exponent unpadded.
func AppendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-07 → e-7
		dst = dst[:n-1]
	}
	return dst
}

// Plain reports whether encoding/json writes s as its bytes between
// quotes: s is ASCII with no control byte, quote, backslash, <, > or &.
func Plain(s string) bool {
	for _, c := range []byte(s) {
		if c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// Finite reports whether f is neither infinite nor NaN, so JSON can hold
// it.
func Finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }
