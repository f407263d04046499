package agg

import (
	"math"
	"strconv"

	"dispersion/internal/wire"
)

// The summary codec. A summary is written in one canonical layout — the
// keys of the wire structs in declaration order, empty optional keys
// omitted, no whitespace — which is byte for byte what encoding/json
// writes for it. Each MarshalJSON appends that layout directly, without
// reflection, and Summary.UnmarshalJSON parses it directly. Each leaves
// the rare rest to encoding/json: MarshalJSON a Process that needs
// escaping or a value JSON cannot hold (a derived mean, variance or
// quantile beyond the float64 range), so the bytes or the error are
// what encoding/json gives; UnmarshalJSON any other input (whitespace,
// reordered, unknown, missing, duplicate or case-variant keys, escapes,
// numbers outside the canonical grammar), which it decodes through the
// sketches' own UnmarshalJSONs. Both readers hand what they read to the
// same validators, the restore methods, so they accept and reject the
// same inputs with the same errors.

// appendJSON appends the canonical layout of s to dst. ok is false when
// the layout would need escaping or a non-finite number; the caller then
// discards dst and takes encoding/json's path.
func (s *Summary) appendJSON(dst []byte) (_ []byte, ok bool) {
	if !wire.Plain(s.Process) {
		return dst, false
	}
	dst = append(dst, `{"process":"`...)
	dst = append(dst, s.Process...)
	dst = append(dst, '"')
	if s.Continuous {
		dst = append(dst, `,"continuous":true`...)
	}
	if s.Capacity != 0 {
		dst = append(dst, `,"capacity":`...)
		dst = strconv.AppendInt(dst, int64(s.Capacity), 10)
	}
	dst = append(dst, `,"trials":`...)
	dst = strconv.AppendInt(dst, s.Trials, 10)
	if s.Truncated != 0 {
		dst = append(dst, `,"truncated":`...)
		dst = strconv.AppendInt(dst, s.Truncated, 10)
	}
	if s.Unsettled != 0 {
		dst = append(dst, `,"unsettled":`...)
		dst = strconv.AppendInt(dst, s.Unsettled, 10)
	}
	dst = append(dst, `,"makespan":`...)
	if dst, ok = s.Makespan.appendJSON(dst); !ok {
		return dst, false
	}
	dst = append(dst, `,"total_steps":`...)
	if dst, ok = s.TotalSteps.appendJSON(dst); !ok {
		return dst, false
	}
	return append(dst, '}'), true
}

// appendJSON appends the canonical layout of c, or null for a nil
// column, as encoding/json writes a nil pointer; ok as for Summary.
func (c *Column) appendJSON(dst []byte) (_ []byte, ok bool) {
	if c == nil {
		return append(dst, "null"...), true
	}
	dst = append(dst, `{"moments":`...)
	if dst, ok = c.Moments.appendJSON(dst); !ok {
		return dst, false
	}
	dst = append(dst, `,"quantiles":`...)
	if dst, ok = c.Quantiles.appendJSON(dst); !ok {
		return dst, false
	}
	if c.Histogram != nil {
		dst = append(dst, `,"histogram":`...)
		if dst, ok = c.Histogram.appendJSON(dst); !ok {
			return dst, false
		}
	}
	return append(dst, '}'), true
}

// appendJSON appends the canonical layout of m, or null for a nil
// sketch; ok as for Summary.
func (m *Moments) appendJSON(dst []byte) ([]byte, bool) {
	if m == nil {
		return append(dst, "null"...), true
	}
	mean, variance := m.Mean(), m.Variance()
	if !wire.Finite(m.min) || !wire.Finite(m.max) || !wire.Finite(mean) || !wire.Finite(variance) {
		return dst, false
	}
	dst = append(dst, `{"n":`...)
	dst = strconv.AppendInt(dst, m.n, 10)
	dst = append(dst, `,"min":`...)
	dst = wire.AppendFloat(dst, m.min)
	dst = append(dst, `,"max":`...)
	dst = wire.AppendFloat(dst, m.max)
	dst = append(dst, `,"sum":"`...)
	dst = m.sum.appendText(dst)
	dst = append(dst, `","sumsq":"`...)
	dst = m.sqs.appendText(dst)
	dst = append(dst, `","mean":`...)
	dst = wire.AppendFloat(dst, mean)
	dst = append(dst, `,"variance":`...)
	dst = wire.AppendFloat(dst, variance)
	dst = append(dst, `,"stddev":`...)
	dst = wire.AppendFloat(dst, math.Sqrt(variance))
	return append(dst, '}'), true
}

// appendJSON appends the canonical layout of s, or null for a nil
// sketch; ok as for Summary.
func (s *Quantiles) appendJSON(dst []byte) ([]byte, bool) {
	if s == nil {
		return append(dst, "null"...), true
	}
	var q [3]float64
	if s.n > 0 {
		q = [3]float64{s.Query(0.5), s.Query(0.9), s.Query(0.99)}
	}
	if !wire.Finite(s.alpha) || !wire.Finite(q[0]) || !wire.Finite(q[1]) || !wire.Finite(q[2]) {
		return dst, false
	}
	dst = append(dst, `{"alpha":`...)
	dst = wire.AppendFloat(dst, s.alpha)
	dst = append(dst, `,"n":`...)
	dst = strconv.AppendInt(dst, s.n, 10)
	if s.zero != 0 {
		dst = append(dst, `,"zero":`...)
		dst = strconv.AppendInt(dst, s.zero, 10)
	}
	// The wire form writes empty keys and counts as [], never null.
	keys, counts := s.keys, s.counts
	if keys == nil {
		keys = []int32{}
	}
	if counts == nil {
		counts = []int64{}
	}
	dst = append(dst, `,"keys":`...)
	dst = wire.AppendArray(dst, keys, wire.AppendInt)
	dst = append(dst, `,"counts":`...)
	dst = wire.AppendArray(dst, counts, wire.AppendInt)
	for i, key := range [...]string{`,"q50":`, `,"q90":`, `,"q99":`} {
		if q[i] != 0 {
			dst = append(dst, key...)
			dst = wire.AppendFloat(dst, q[i])
		}
	}
	return append(dst, '}'), true
}

// appendJSON appends the canonical layout of h, or null for a nil
// histogram; ok as for Summary.
func (h *Histogram) appendJSON(dst []byte) ([]byte, bool) {
	if h == nil {
		return append(dst, "null"...), true
	}
	if !wire.Finite(h.w0) || !wire.Finite(h.width) {
		return dst, false
	}
	dst = append(dst, `{"buckets":`...)
	dst = strconv.AppendInt(dst, int64(h.k), 10)
	dst = append(dst, `,"width0":`...)
	dst = wire.AppendFloat(dst, h.w0)
	dst = append(dst, `,"width":`...)
	dst = wire.AppendFloat(dst, h.width)
	dst = append(dst, `,"n":`...)
	dst = strconv.AppendInt(dst, h.n, 10)
	dst = append(dst, `,"counts":`...)
	dst = wire.AppendArray(dst, h.counts, wire.AppendInt)
	return append(dst, '}'), true
}

// UnmarshalJSON restores a summary serialized by MarshalJSON: directly
// when data is in the canonical layout MarshalJSON writes, and through
// encoding/json otherwise. Either way it accepts and rejects what the
// sketches' validators accept and reject, with the same errors, and
// leaves s unchanged on an error.
func (s *Summary) UnmarshalJSON(data []byte) error {
	w, ok, err := parseCanonical(data)
	if !ok {
		return s.decodeJSON(data)
	}
	if err != nil {
		return err
	}
	return s.restore(&w)
}

// parseCanonical parses a summary in the canonical layout; ok is false
// for any other input. err is the first error a sketch's validator
// reported, in document order, as encoding/json's path reports it.
func parseCanonical(data []byte) (w summaryJSON, ok bool, err error) {
	p := parser{Parser: wire.NewParser(data)}
	p.Lit(`{"process":`)
	w.Process = p.Str()
	if p.Next(`,"continuous":`) {
		w.Continuous = p.Bool()
	}
	if p.Next(`,"capacity":`) {
		w.Capacity = wire.Int[int](&p.Parser)
	}
	p.Lit(`,"trials":`)
	w.Trials = wire.Int[int64](&p.Parser)
	if p.Next(`,"truncated":`) {
		w.Truncated = wire.Int[int64](&p.Parser)
	}
	if p.Next(`,"unsettled":`) {
		w.Unsettled = wire.Int[int64](&p.Parser)
	}
	p.Lit(`,"makespan":`)
	w.Makespan = p.column()
	p.Lit(`,"total_steps":`)
	w.TotalSteps = p.column()
	p.Lit("}")
	if !p.Complete() {
		return w, false, nil
	}
	return w, true, p.err
}

// parser reads the sketches of the canonical layout. It validates each
// as it is read but keeps only the first error: encoding/json reports a
// syntax error anywhere in the input before any sketch's, so the error
// counts only once the whole input has matched.
type parser struct {
	wire.Parser
	err error
}

func (p *parser) check(err error) {
	if p.err == nil {
		p.err = err
	}
}

func (p *parser) column() *Column {
	var w columnJSON
	p.Lit(`{"moments":`)
	w.Moments = p.moments()
	p.Lit(`,"quantiles":`)
	w.Quantiles = p.quantiles()
	if p.Next(`,"histogram":`) {
		w.Histogram = p.histogram()
	}
	p.Lit("}")
	c := new(Column)
	p.check(c.restore(&w))
	return c
}

func (p *parser) moments() *Moments {
	var w momentsJSON
	p.Lit(`{"n":`)
	w.N = wire.Int[int64](&p.Parser)
	p.Lit(`,"min":`)
	w.Min = p.Float()
	p.Lit(`,"max":`)
	w.Max = p.Float()
	p.Lit(`,"sum":`)
	w.Sum = p.Str()
	p.Lit(`,"sumsq":`)
	w.SumSq = p.Str()
	// The derived fields are read for their grammar only; the decoders
	// rebuild them from the exact accumulators.
	for _, key := range [...]string{`,"mean":`, `,"variance":`, `,"stddev":`} {
		p.Lit(key)
		p.Float()
	}
	p.Lit("}")
	m := new(Moments)
	p.check(m.restore(&w))
	return m
}

func (p *parser) quantiles() *Quantiles {
	var w quantilesJSON
	p.Lit(`{"alpha":`)
	w.Alpha = p.Float()
	p.Lit(`,"n":`)
	w.N = wire.Int[int64](&p.Parser)
	if p.Next(`,"zero":`) {
		w.Zero = wire.Int[int64](&p.Parser)
	}
	p.Lit(`,"keys":`)
	w.Keys = wire.Ints[int32](&p.Parser)
	p.Lit(`,"counts":`)
	w.Counts = wire.Ints[int64](&p.Parser)
	for _, key := range [...]string{`,"q50":`, `,"q90":`, `,"q99":`} {
		if p.Next(key) {
			p.Float()
		}
	}
	p.Lit("}")
	s := new(Quantiles)
	p.check(s.restore(&w))
	return s
}

func (p *parser) histogram() *Histogram {
	var w histogramJSON
	p.Lit(`{"buckets":`)
	w.Buckets = wire.Int[int](&p.Parser)
	p.Lit(`,"width0":`)
	w.Width0 = p.Float()
	p.Lit(`,"width":`)
	w.Width = p.Float()
	p.Lit(`,"n":`)
	w.N = wire.Int[int64](&p.Parser)
	p.Lit(`,"counts":`)
	w.Counts = wire.Ints[int64](&p.Parser)
	p.Lit("}")
	h := new(Histogram)
	p.check(h.restore(&w))
	return h
}
