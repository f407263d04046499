package stats

import (
	"fmt"
	"math"
	"sort"
)

// Interval is a two-sided confidence interval for a location parameter.
// Level records the confidence actually achieved, which for the
// distribution-free median interval can differ from the level requested
// (order statistics only admit a discrete set of coverages).
type Interval struct {
	Lo, Hi float64
	Level  float64
}

// checkSample rejects samples the interval estimators cannot interpret:
// empty input, NaN and ±Inf values. Unlike the panicking oracles above,
// the estimators return errors — they sit on the benchmark-gating path
// where the sample is external data (a results file), not programmer
// input.
func checkSample(xs []float64, level float64) error {
	if len(xs) == 0 {
		return fmt.Errorf("stats: empty sample")
	}
	if !(level > 0 && level < 1) {
		return fmt.Errorf("stats: confidence level %g outside (0, 1)", level)
	}
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("stats: sample[%d] = %g is not finite", i, x)
		}
	}
	return nil
}

// MeanCI returns the two-sided Student-t confidence interval for the
// population mean at the given level. A single observation has no spread
// information: the interval degenerates to [x, x] with Level 0. An
// all-equal sample yields the degenerate interval at the requested level
// (the t interval with zero standard error). Non-finite values are
// rejected with an error.
func MeanCI(xs []float64, level float64) (Interval, error) {
	if err := checkSample(xs, level); err != nil {
		return Interval{}, err
	}
	s := Summarize(xs)
	if s.N == 1 {
		return Interval{Lo: s.Mean, Hi: s.Mean, Level: 0}, nil
	}
	t := TQuantile(float64(s.N-1), 0.5+level/2)
	h := t * s.StdErr
	return Interval{Lo: s.Mean - h, Hi: s.Mean + h, Level: level}, nil
}

// MedianCI returns the distribution-free confidence interval for the
// population median built from order statistics: [x_(l), x_(n+1-l)] with
// l the largest index whose binomial tail keeps coverage at or above the
// requested level. The achieved coverage 1 - 2·P(Bin(n,1/2) <= l-1) is
// reported in Level; for small n even the full range [min, max] may fall
// short of the request, in which case that widest interval is returned
// with its (lower) achieved level. Non-finite values are rejected with an
// error.
func MedianCI(xs []float64, level float64) (Interval, error) {
	if err := checkSample(xs, level); err != nil {
		return Interval{}, err
	}
	n := len(xs)
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	// Largest l >= 1 with 2·BinomCDF(l-1; n, 1/2) <= 1-level; l = 1
	// (the widest interval) when none qualifies.
	l := 1
	for cand := 2; cand <= (n+1)/2; cand++ {
		if 2*binomCDFHalf(cand-1, n) <= 1-level {
			l = cand
		} else {
			break
		}
	}
	achieved := 1 - 2*binomCDFHalf(l-1, n)
	if achieved < 0 {
		achieved = 0
	}
	return Interval{Lo: sorted[l-1], Hi: sorted[n-l], Level: achieved}, nil
}

// binomCDFHalf returns P(Bin(n, 1/2) <= k), with the empty sum (k < 0)
// equal to 0. Computed through log-space binomial coefficients so large
// n cannot overflow.
func binomCDFHalf(k, n int) float64 {
	if k < 0 {
		return 0
	}
	if k >= n {
		return 1
	}
	var p float64
	logHalfN := -float64(n) * math.Ln2
	for i := 0; i <= k; i++ {
		lc, _ := math.Lgamma(float64(n + 1))
		li, _ := math.Lgamma(float64(i + 1))
		lni, _ := math.Lgamma(float64(n - i + 1))
		p += math.Exp(lc - li - lni + logHalfN)
	}
	if p > 1 {
		p = 1
	}
	return p
}

// TQuantile returns the p-th quantile of Student's t distribution with df
// degrees of freedom (the value t with P(T <= t) = p), by bisection on
// the CDF. It panics on df <= 0 or p outside (0, 1) — these are
// programmer errors, not data.
func TQuantile(df, p float64) float64 {
	if df <= 0 || !(p > 0 && p < 1) {
		panic("stats: TQuantile wants df > 0 and p in (0, 1)")
	}
	if p == 0.5 {
		return 0
	}
	// Symmetry: solve in the upper tail.
	if p < 0.5 {
		return -TQuantile(df, 1-p)
	}
	lo, hi := 0.0, 1.0
	for TCDF(hi, df) < p {
		hi *= 2
		if hi > 1e18 {
			return math.Inf(1)
		}
	}
	for i := 0; i < 200 && hi-lo > 1e-14*(1+hi); i++ {
		mid := (lo + hi) / 2
		if TCDF(mid, df) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// TCDF returns P(T <= t) for Student's t distribution with df degrees of
// freedom, through the regularized incomplete beta function.
func TCDF(t, df float64) float64 {
	if df <= 0 {
		panic("stats: TCDF wants df > 0")
	}
	if t == 0 {
		return 0.5
	}
	x := df / (df + t*t)
	tail := 0.5 * RegIncBeta(df/2, 0.5, x)
	if t > 0 {
		return 1 - tail
	}
	return tail
}

// RegIncBeta returns the regularized incomplete beta function
// I_x(a, b) = B(x; a, b)/B(a, b) for a, b > 0 and x in [0, 1], by the
// standard continued-fraction expansion (converges quickly on the side
// x < (a+1)/(a+b+2); the other side uses the symmetry
// I_x(a,b) = 1 - I_{1-x}(b,a)).
func RegIncBeta(a, b, x float64) float64 {
	if a <= 0 || b <= 0 || x < 0 || x > 1 {
		panic("stats: RegIncBeta wants a, b > 0 and x in [0, 1]")
	}
	if x == 0 {
		return 0
	}
	if x == 1 {
		return 1
	}
	lab, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction of the incomplete beta function
// by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 1e-15
		tiny    = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		// Even step.
		aa := fm * (b - fm) * x / ((qam + 2*fm) * (a + 2*fm))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		// Odd step.
		aa = -(a + fm) * (qab + fm) * x / ((a + 2*fm) * (qap + 2*fm))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}
