// Package bounds provides the closed-form theoretical bounds stated in the
// paper, evaluated numerically so experiments can print measured-vs-bound
// comparisons: the Theorem 3.1 hitting-time upper bound, the Corollary 3.2
// worst-case ceilings, the Theorem 3.6/3.7 lower bounds, and the clique
// constants of Theorem 5.2 (κ_cc and π²/6).
package bounds

import (
	"math"
)

// PiSquaredOver6 is the limit of t_par(K_n)/n (Theorem 5.2), ≈ 1.6449.
const PiSquaredOver6 = math.Pi * math.Pi / 6

// KappaCC returns the limit κ_cc of t_seq(K_n)/n (Lemma 5.1): the
// normalised expected maximum of n independent geometric waiting times
// with success probabilities i/n — the longest waiting time in the coupon
// collector problem. Evaluated as
//
//	κ_cc = ∫_0^∞ (1 - Π_{i>=1} (1 - e^{-i x})) dx ≈ 1.2550,
//
// the limiting tail integral of max_i Geo(i/n)/n, by composite Simpson
// quadrature with the Euler product truncated at machine precision.
func KappaCC() float64 {
	integrand := func(x float64) float64 {
		if x <= 0 {
			return 1
		}
		prod := 1.0
		for i := 1; ; i++ {
			e := math.Exp(-float64(i) * x)
			if e < 1e-16 {
				break
			}
			prod *= 1 - e
			if prod < 1e-18 {
				// The product has vanished; the integrand is 1 to
				// machine precision (this is the small-x regime).
				return 1
			}
		}
		return 1 - prod
	}
	// Composite Simpson on (0, 60] with a fine grid; the integrand is
	// smooth, in (0,1], and decays like e^{-x}.
	const a, b = 1e-9, 60.0
	const steps = 60000 // even
	h := (b - a) / steps
	sum := integrand(a) + integrand(b)
	for i := 1; i < steps; i++ {
		x := a + float64(i)*h
		if i%2 == 1 {
			sum += 4 * integrand(x)
		} else {
			sum += 2 * integrand(x)
		}
	}
	return sum * h / 3
}

// Theorem31 returns the upper bound 6·t_hit(G)·log2(n) that the dispersion
// time of either process exceeds with probability at most 1/n²
// (Theorem 3.1); it also bounds the expectations up to constants.
func Theorem31(thit float64, n int) float64 {
	return 6 * thit * math.Log2(float64(n))
}

// GeneralWorstHitting returns the asymptotic worst-case maximum hitting
// time over all connected n-vertex graphs, (4/27)·n³ (Lovász [34, Theorem
// 2.1]); combined with Theorem31 it yields the Corollary 3.2 general
// ceiling O(n³ log n).
func GeneralWorstHitting(n int) float64 {
	f := float64(n)
	return 4 * f * f * f / 27
}

// RegularWorstHitting returns the O(n²) worst-case hitting ceiling for
// regular graphs ([34]); combined with Theorem31 it yields the Corollary
// 3.2 regular ceiling O(n² log n). The constant 2 is the standard bound
// 2n² for regular graphs.
func RegularWorstHitting(n int) float64 {
	f := float64(n)
	return 2 * f * f
}

// TreeLower returns the Theorem 3.7 lower bound t_seq(T) >= 2n-3 valid for
// every n-vertex tree.
func TreeLower(n int) float64 {
	return float64(2*n - 3)
}

// EdgeDegreeLower returns the Theorem 3.6 lower bound with the constant
// from its proof: the last walk needs at least half the worst commute
// time, giving t_seq(G) >= 2|E|/Δ.
func EdgeDegreeLower(edges, maxDegree int) float64 {
	return 2 * float64(edges) / float64(maxDegree)
}

// MixingLower returns the Proposition 3.9 chain of lower bounds given the
// lazy chain's second eigenvalue: t_seq = Ω(t_mix) = Ω(λ2/(1-λ2)).
func MixingLower(lambda2Lazy float64) float64 {
	if lambda2Lazy >= 1 {
		return math.Inf(1)
	}
	return lambda2Lazy / (1 - lambda2Lazy)
}
