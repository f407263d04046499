package sink

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"

	"dispersion"
)

// The JSONL codec. A result line is written in one canonical layout —
// the keys of Record and dispersion.Result in declaration order, no
// whitespace — which is byte for byte what encoding/json writes for a
// Record. AppendRecord writes that layout directly and
// Record.UnmarshalJSON parses it directly, without reflection. Each
// leaves the rare rest to encoding/json: AppendRecord a Process that
// needs escaping or a non-finite time, UnmarshalJSON any other input
// (reordered or case-variant keys, whitespace, escapes, missing fields),
// which it decodes on plainRecord, so every line encoding/json accepts
// still decodes to the same value.
//
// Record deliberately has no MarshalJSON: encoding/json re-scans a
// marshaler's output, which would cost more than reflection saves.

// plainRecord is Record without its methods, for encoding/json.
type plainRecord Record

// AppendRecord appends the JSON encoding of rec to dst and returns the
// extended buffer: exactly the bytes json.Marshal(rec) returns. It writes
// a Result whose Process needs no escaping and whose times are finite
// directly, and hands any other to json.Marshal, which fails, appending
// nothing, on a NaN or infinite time.
func AppendRecord(dst []byte, rec Record) ([]byte, error) {
	r := rec.Result
	if r != nil && !plain(r) {
		b, err := json.Marshal(rec)
		return append(dst, b...), err
	}
	dst = append(dst, `{"trial":`...)
	dst = strconv.AppendInt(dst, int64(rec.Trial), 10)
	if r == nil {
		return append(dst, `,"result":null}`...), nil
	}
	dst = append(dst, `,"result":{"Process":`...)
	dst = append(dst, '"')
	dst = append(dst, r.Process...)
	dst = append(dst, '"')
	dst = append(dst, `,"Continuous":`...)
	dst = strconv.AppendBool(dst, r.Continuous)
	dst = append(dst, `,"Dispersion":`...)
	dst = strconv.AppendInt(dst, r.Dispersion, 10)
	dst = append(dst, `,"TotalSteps":`...)
	dst = strconv.AppendInt(dst, r.TotalSteps, 10)
	dst = append(dst, `,"Steps":`...)
	dst = appendArray(dst, r.Steps, appendInt)
	dst = append(dst, `,"SettledAt":`...)
	dst = appendArray(dst, r.SettledAt, appendInt)
	dst = append(dst, `,"SettleOrder":`...)
	dst = appendArray(dst, r.SettleOrder, appendInt)
	dst = append(dst, `,"SettleClock":`...)
	dst = appendArray(dst, r.SettleClock, appendInt)
	dst = append(dst, `,"Trajectories":`...)
	dst = appendArray(dst, r.Trajectories, func(dst []byte, tr []int32) []byte {
		return appendArray(dst, tr, appendInt)
	})
	dst = append(dst, `,"Truncated":`...)
	dst = strconv.AppendBool(dst, r.Truncated)
	dst = append(dst, `,"Capacity":`...)
	dst = strconv.AppendInt(dst, int64(r.Capacity), 10)
	dst = append(dst, `,"Time":`...)
	dst = appendFloat(dst, r.Time)
	dst = append(dst, `,"SettleTimes":`...)
	dst = appendArray(dst, r.SettleTimes, appendFloat)
	return append(dst, "}}"...), nil
}

// appendArray appends xs as a JSON array, or null for a nil slice.
func appendArray[T any](dst []byte, xs []T, elem func([]byte, T) []byte) []byte {
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

func appendInt[T int32 | int64](dst []byte, x T) []byte {
	return strconv.AppendInt(dst, int64(x), 10)
}

// appendFloat formats a finite f as encoding/json does: shortest
// round-trip digits, in exponent form only below 1e-6 or from 1e21 in
// magnitude, with a one-digit negative exponent unpadded.
func appendFloat(dst []byte, f float64) []byte {
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

// plain reports whether r encodes without escaping or error: its Process
// is ASCII with no control byte, quote, backslash, <, > or &, and its
// times are finite.
func plain(r *dispersion.Result) bool {
	for _, c := range []byte(r.Process) {
		if c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	if !finite(r.Time) {
		return false
	}
	for _, t := range r.SettleTimes {
		if !finite(t) {
			return false
		}
	}
	return true
}

func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// UnmarshalJSON decodes one record: directly when data is in the
// canonical layout AppendRecord writes, and through encoding/json
// otherwise. Either way the outcome is what json.Unmarshal into a
// method-less Record gives, error or value, including nil versus empty
// slices. As with encoding/json, a non-nil Result is decoded into in
// place.
func (r *Record) UnmarshalJSON(data []byte) error {
	trial, res, ok := parseCanonical(data)
	if !ok {
		return json.Unmarshal(data, (*plainRecord)(r))
	}
	r.Trial = trial
	switch {
	case res == nil:
		r.Result = nil
	case r.Result == nil:
		r.Result = res
	default:
		*r.Result = *res
	}
	return nil
}

// parseCanonical parses a line in the canonical layout; ok is false for
// any other input.
func parseCanonical(data []byte) (trial int, res *dispersion.Result, ok bool) {
	p := parser{b: data}
	p.lit(`{"trial":`)
	trial = parseInt[int](&p)
	p.lit(`,"result":`)
	if !p.next("null") {
		res = new(dispersion.Result)
		p.result(res)
	}
	p.lit("}")
	return trial, res, !p.bad && p.i == len(p.b)
}

// parser reads the canonical layout. Its first mismatch sets bad, after
// which every read is a no-op returning zero values; the caller then
// hands the input to encoding/json.
type parser struct {
	b   []byte
	i   int
	bad bool
}

func (p *parser) result(r *dispersion.Result) {
	p.lit(`{"Process":`)
	r.Process = p.str()
	p.lit(`,"Continuous":`)
	r.Continuous = p.bool()
	p.lit(`,"Dispersion":`)
	r.Dispersion = parseInt[int64](p)
	p.lit(`,"TotalSteps":`)
	r.TotalSteps = parseInt[int64](p)
	p.lit(`,"Steps":`)
	r.Steps = array(p, parseInt[int64])
	p.lit(`,"SettledAt":`)
	r.SettledAt = array(p, parseInt[int32])
	p.lit(`,"SettleOrder":`)
	r.SettleOrder = array(p, parseInt[int32])
	p.lit(`,"SettleClock":`)
	r.SettleClock = array(p, parseInt[int64])
	p.lit(`,"Trajectories":`)
	r.Trajectories = array(p, func(p *parser) []int32 { return array(p, parseInt[int32]) })
	p.lit(`,"Truncated":`)
	r.Truncated = p.bool()
	p.lit(`,"Capacity":`)
	r.Capacity = parseInt[int](p)
	p.lit(`,"Time":`)
	r.Time = p.float()
	p.lit(`,"SettleTimes":`)
	r.SettleTimes = array(p, (*parser).float)
	p.lit("}")
}

// next consumes s if the input continues with it.
func (p *parser) next(s string) bool {
	if p.bad || len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

// lit consumes s, which the input must continue with.
func (p *parser) lit(s string) {
	if !p.next(s) {
		p.bad = true
	}
}

func (p *parser) bool() bool {
	if p.next("true") {
		return true
	}
	p.lit("false")
	return false
}

// str reads a string of printable ASCII without escapes; anything else
// is left to encoding/json.
func (p *parser) str() string {
	if !p.next(`"`) {
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

// parseInt reads a JSON integer that fits T. A fraction, an exponent, a
// leading zero or more than 19 digits is a mismatch.
func parseInt[T int | int32 | int64](p *parser) T {
	if p.bad {
		return 0
	}
	b := p.b[p.i:]
	j := 0
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		j++
	}
	start := j
	var u uint64
	for ; j < len(b) && j-start < 19 && '0' <= b[j] && b[j] <= '9'; j++ {
		u = u*10 + uint64(b[j]-'0')
	}
	v := int64(u)
	if neg {
		v = -v
	}
	switch n := j - start; {
	case n == 0, n > 1 && b[start] == '0': // no digits, or a leading zero
	case j < len(b) && '0' <= b[j] && b[j] <= '9': // a 20th digit
	case u > math.MaxInt64 && !(neg && u == 1<<63): // outside int64
	case int64(T(v)) != v: // outside T
	default:
		p.i += j
		return T(v)
	}
	p.bad = true
	return 0
}

// float reads a number in JSON's grammar and converts it as
// encoding/json does; an out-of-range value is a mismatch.
func (p *parser) float() float64 {
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

// array reads a JSON array of elem values: null is a nil slice and []
// an empty non-nil one, as encoding/json decodes them.
func array[T any](p *parser, elem func(*parser) T) []T {
	if p.bad || p.next("null") {
		return nil
	}
	p.lit("[")
	if p.bad {
		return nil
	}
	if p.next("]") {
		return []T{}
	}
	xs := make([]T, 0, p.capHint())
	for {
		xs = append(xs, elem(p))
		if p.bad || !p.next(",") {
			break
		}
	}
	p.lit("]")
	return xs
}

// capHint sizes the array about to be read: one more than the commas
// before the next ']'. That is exact for an array of numbers, and never
// more than half the bytes scanned, so hostile input cannot inflate it.
func (p *parser) capHint() int {
	seg := p.b[p.i:]
	if end := bytes.IndexByte(seg, ']'); end >= 0 {
		seg = seg[:end]
	}
	return min(bytes.Count(seg, []byte{','})+1, len(seg)/2+1)
}
