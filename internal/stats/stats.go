// Package stats provides the statistical toolkit used to turn Monte-Carlo
// trial outputs into the quantities the paper reports: summary statistics
// with confidence intervals, empirical CDFs with stochastic-dominance
// checks, the two-sample Kolmogorov-Smirnov test (for the equality in
// distribution of total steps, Theorem 4.1), and least-squares scaling
// fits for the Θ(·) rows of Table 1.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary is the usual batch of summary statistics over a sample.
type Summary struct {
	N        int
	Mean     float64
	Variance float64 // unbiased (n-1 denominator)
	StdDev   float64
	StdErr   float64 // StdDev / sqrt(N)
	Min      float64
	Max      float64
	Median   float64
}

// Summarize computes a Summary of xs. It panics on an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: empty sample")
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		var sq float64
		for _, x := range xs {
			d := x - s.Mean
			sq += d * d
		}
		s.Variance = sq / float64(s.N-1)
		s.StdDev = math.Sqrt(s.Variance)
		s.StdErr = s.StdDev / math.Sqrt(float64(s.N))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = Quantile(sorted, 0.5)
	return s
}

// CI95 returns the normal-approximation 95% confidence interval for the
// mean.
func (s Summary) CI95() (lo, hi float64) {
	const z = 1.959963984540054
	return s.Mean - z*s.StdErr, s.Mean + z*s.StdErr
}

// String renders "mean ± halfwidth (n=N)".
func (s Summary) String() string {
	lo, hi := s.CI95()
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", s.Mean, (hi-lo)/2, s.N)
}

// Quantile returns the q-th quantile (0 <= q <= 1) of an already sorted
// sample using linear interpolation at position q·(n-1). The input MUST
// be in ascending order — Quantile is the offline oracle that the
// mergeable sketches in package agg are tested against, so a silently
// wrong answer on unsorted data would corrupt every accuracy bound
// downstream. It panics on an empty or unsorted sample.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: empty sample")
	}
	if !sort.Float64sAreSorted(sorted) {
		panic("stats: Quantile input is not sorted")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// ECDF is an empirical cumulative distribution function.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from a sample.
func NewECDF(xs []float64) *ECDF {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return &ECDF{sorted: sorted}
}

// At returns F(x) = fraction of the sample <= x.
func (e *ECDF) At(x float64) float64 {
	i := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.sorted))
}

// DominatedBy reports whether the distribution of e is stochastically
// dominated by that of other up to slack: F_e(x) >= F_other(x) - slack at
// every sample point. Stochastic domination X ⪯ Y corresponds to
// F_X >= F_Y pointwise; slack absorbs Monte-Carlo noise.
func (e *ECDF) DominatedBy(other *ECDF, slack float64) bool {
	for _, x := range e.sorted {
		if e.At(x) < other.At(x)-slack {
			return false
		}
	}
	for _, x := range other.sorted {
		if e.At(x) < other.At(x)-slack {
			return false
		}
	}
	return true
}

// KSStatistic returns the two-sample Kolmogorov-Smirnov statistic
// D = sup_x |F_a(x) - F_b(x)|.
func KSStatistic(a, b []float64) float64 {
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	var d float64
	i, j := 0, 0
	for i < len(sa) && j < len(sb) {
		if sa[i] <= sb[j] {
			i++
		} else {
			j++
		}
		diff := math.Abs(float64(i)/float64(len(sa)) - float64(j)/float64(len(sb)))
		if diff > d {
			d = diff
		}
	}
	return d
}

// KSPValue returns the asymptotic p-value of the two-sample KS test with
// statistic d and sample sizes n and m, using the Kolmogorov distribution
// tail series.
func KSPValue(d float64, n, m int) float64 {
	ne := float64(n) * float64(m) / float64(n+m)
	lambda := (math.Sqrt(ne) + 0.12 + 0.11/math.Sqrt(ne)) * d
	// Q_KS(λ) = 2 Σ_{k>=1} (-1)^{k-1} e^{-2 k² λ²}.
	var p float64
	for k := 1; k <= 100; k++ {
		term := 2 * math.Pow(-1, float64(k-1)) * math.Exp(-2*float64(k*k)*lambda*lambda)
		p += term
		if math.Abs(term) < 1e-12 {
			break
		}
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return p
}

// LinearFit holds an ordinary least squares line y = Slope*x + Intercept.
type LinearFit struct {
	Slope, Intercept, R2 float64
}

// FitLine fits a least-squares line through the points.
func FitLine(xs, ys []float64) LinearFit {
	if len(xs) != len(ys) || len(xs) < 2 {
		panic("stats: FitLine needs >= 2 paired points")
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	denom := n*sxx - sx*sx
	if denom == 0 {
		panic("stats: degenerate x values")
	}
	slope := (n*sxy - sx*sy) / denom
	intercept := (sy - slope*sx) / n
	// R² = 1 - SS_res/SS_tot.
	meanY := sy / n
	var ssRes, ssTot float64
	for i := range xs {
		pred := slope*xs[i] + intercept
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - meanY) * (ys[i] - meanY)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return LinearFit{Slope: slope, Intercept: intercept, R2: r2}
}

// FitPowerLaw fits y = C·x^alpha by least squares on log-log data,
// returning the exponent alpha, the constant C and the log-space R².
// All inputs must be positive.
func FitPowerLaw(xs, ys []float64) (alpha, c, r2 float64) {
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			panic("stats: FitPowerLaw needs positive data")
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	f := FitLine(lx, ly)
	return f.Slope, math.Exp(f.Intercept), f.R2
}

// Fraction returns the proportion of the sample satisfying pred.
func Fraction(xs []float64, pred func(float64) bool) float64 {
	c := 0
	for _, x := range xs {
		if pred(x) {
			c++
		}
	}
	return float64(c) / float64(len(xs))
}
