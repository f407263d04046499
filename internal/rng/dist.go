package rng

import "math"

// ExpFloat64 returns an exponentially distributed float64 with rate 1
// (mean 1), via inversion.
func (r *Source) ExpFloat64() float64 {
	// 1 - Float64() is in (0, 1], so the log argument is never zero.
	return -math.Log(1 - r.Float64())
}

// Geometric returns the number of failures before the first success in
// independent Bernoulli(p) trials, i.e. a geometric variate supported on
// {0, 1, 2, ...} with mean (1-p)/p. It panics unless 0 < p <= 1.
//
// For small p the inversion formula floor(log(U)/log(1-p)) is used; it is
// exact in distribution and O(1) regardless of the outcome's size.
func (r *Source) Geometric(p float64) int64 {
	if p <= 0 || p > 1 {
		panic("rng: Geometric requires 0 < p <= 1")
	}
	if p == 1 {
		return 0
	}
	u := 1 - r.Float64() // in (0, 1]
	return int64(math.Log(u) / math.Log1p(-p))
}
