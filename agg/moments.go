package agg

import (
	"encoding/json"
	"fmt"
	"math"
	"math/big"
)

// reportPrec is the big.Float working precision of the mean/variance
// read paths. The accumulators are exact; 256 bits keeps every
// intermediate rounding error more than 200 bits below the final
// float64 rounding, so the reported values are a pure (deterministic)
// function of the accumulator state.
const reportPrec = 256

// Moments is the streaming count/min/max/mean/variance sketch. Unlike
// the classic Welford recurrence — whose running mean picks up
// order-dependent last-ulp rounding — it accumulates Σx and Σx² in an
// exact fixed-point integer representation, so Add is exactly
// associative: merging per-shard Moments reproduces the contiguous
// run's state bit for bit, in any merge order. Mean and variance are
// derived from the exact sums with one final rounding.
//
// The zero value is an empty sketch ready for use.
type Moments struct {
	n        int64
	min, max float64
	sum, sqs exactSum
}

// NewMoments returns an empty Moments sketch.
func NewMoments() *Moments { return &Moments{} }

// Add folds one value in. Like every sketch in this package it panics
// on NaN or ±Inf.
func (m *Moments) Add(x float64) {
	if m.n == 0 || x < m.min {
		m.min = x
	}
	if m.n == 0 || x > m.max {
		m.max = x
	}
	m.n++
	m.sum.add(x)
	m.sqs.add(x * x)
}

// Merge folds another Moments in; o is left unchanged.
func (m *Moments) Merge(o *Moments) {
	if o.n == 0 {
		return
	}
	if m.n == 0 || o.min < m.min {
		m.min = o.min
	}
	if m.n == 0 || o.max > m.max {
		m.max = o.max
	}
	m.n += o.n
	m.sum.merge(&o.sum)
	m.sqs.merge(&o.sqs)
}

// N returns the number of values added.
func (m *Moments) N() int64 { return m.n }

// Min returns the smallest value added (0 on an empty sketch).
func (m *Moments) Min() float64 { return m.min }

// Max returns the largest value added (0 on an empty sketch).
func (m *Moments) Max() float64 { return m.max }

// Sum returns Σx rounded once to float64.
func (m *Moments) Sum() float64 { return m.sum.value() }

// Mean returns the sample mean (0 on an empty sketch), computed from
// the exact sum with a single division.
func (m *Moments) Mean() float64 {
	if m.n == 0 {
		return 0
	}
	q := m.sum.float(reportPrec)
	q.Quo(q, new(big.Float).SetInt64(m.n))
	v, _ := q.Float64()
	return v
}

// Variance returns the unbiased (n-1 denominator) sample variance,
// computed as (Σx² - (Σx)²/n)/(n-1) from the exact accumulators at
// reportPrec working precision; 0 when fewer than two values were
// added. The result is a deterministic function of the sketch state.
func (m *Moments) Variance() float64 {
	if m.n < 2 {
		return 0
	}
	// Both accumulators carry the 2^sumScale fixed-point scale, so the
	// cross term (Σx)² needs one explicit rescale before it is
	// comparable with Σx².
	s := new(big.Float).SetPrec(reportPrec).SetInt(&m.sum.acc)
	cross := new(big.Float).SetPrec(reportPrec).Mul(s, s)
	cross.SetMantExp(cross, -sumScale)
	cross.Quo(cross, new(big.Float).SetInt64(m.n))
	num := new(big.Float).SetPrec(reportPrec).SetInt(&m.sqs.acc)
	num.Sub(num, cross)
	num.Quo(num, new(big.Float).SetInt64(m.n-1))
	num.SetMantExp(num, -sumScale)
	v, _ := num.Float64()
	if v < 0 { // exact arithmetic can still leave a -0/-ulp residue
		return 0
	}
	return v
}

// StdDev returns the square root of Variance.
func (m *Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// StdErr returns StdDev/√n, the standard error of the mean (0 on an
// empty sketch).
func (m *Moments) StdErr() float64 {
	if m.n == 0 {
		return 0
	}
	return m.StdDev() / math.Sqrt(float64(m.n))
}

// momentsJSON is the wire form of Moments: the exact accumulators ride
// along as scaled decimal integers, so a JSON round trip (and therefore
// a shard summary pulled over HTTP and re-merged) loses nothing.
type momentsJSON struct {
	// N is the number of values added.
	N int64 `json:"n"`
	// Min and Max are the exact extremes (0 while N is 0).
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	// Sum and SumSq are the exact Σx and Σx² accumulators, rendered as
	// "m*2^k" with an odd decimal mantissa ("0" when empty).
	Sum   string `json:"sum"`
	SumSq string `json:"sumsq"`
	// Mean, Variance and StdDev are derived convenience fields for
	// dashboards; UnmarshalJSON ignores them in favour of the exact
	// accumulators.
	Mean     float64 `json:"mean"`
	Variance float64 `json:"variance"`
	StdDev   float64 `json:"stddev"`
}

// MarshalJSON renders the sketch with its exact accumulators plus
// derived mean/variance convenience fields.
func (m *Moments) MarshalJSON() ([]byte, error) {
	if b, ok := m.appendJSON(nil); ok {
		return b, nil
	}
	return json.Marshal(m.wire())
}

// wire returns the sketch's wire form.
func (m *Moments) wire() momentsJSON {
	return momentsJSON{
		N: m.n, Min: m.min, Max: m.max,
		Sum: m.sum.text(), SumSq: m.sqs.text(),
		Mean: m.Mean(), Variance: m.Variance(), StdDev: m.StdDev(),
	}
}

// UnmarshalJSON restores a sketch serialized by MarshalJSON.
func (m *Moments) UnmarshalJSON(b []byte) error {
	var w momentsJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	return m.restore(&w)
}

// restore sets m to the sketch w describes, or fails if no Add or Merge
// can produce it. Both summary decoders validate through it.
func (m *Moments) restore(w *momentsJSON) error {
	m.n, m.min, m.max = w.N, w.Min, w.Max
	if err := m.sum.setText(w.Sum); err != nil {
		return err
	}
	if err := m.sqs.setText(w.SumSq); err != nil {
		return err
	}
	// Added values lie in [min, max], and so does their mean; a sum
	// whose mean leaves the float64 range fails here too.
	if m.n >= 1 {
		if mean := m.Mean(); !(m.min <= mean && mean <= m.max) {
			return fmt.Errorf("agg: moments sketch has mean %v outside [min %v, max %v]", mean, m.min, m.max)
		}
	}
	return nil
}
