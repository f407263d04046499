package stats

import (
	"math"
	"sort"
)

// MannWhitneyU computes the two-sample Mann-Whitney U statistic for the
// hypothesis that a tends to be smaller than b, together with the normal
// approximation one-sided p-value of the alternative "a stochastically
// smaller than b". Ties receive midranks. Suitable for the domination
// claims (Theorems 4.1, 4.7), where a one-sided location test complements
// the ECDF check.
func MannWhitneyU(a, b []float64) (u float64, pSmaller float64) {
	type obs struct {
		v    float64
		from int8
	}
	all := make([]obs, 0, len(a)+len(b))
	for _, x := range a {
		all = append(all, obs{x, 0})
	}
	for _, x := range b {
		all = append(all, obs{x, 1})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	// Midranks with tie correction bookkeeping.
	ranks := make([]float64, len(all))
	var tieTerm float64
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		mid := float64(i+j+1) / 2 // average of ranks i+1..j
		for k := i; k < j; k++ {
			ranks[k] = mid
		}
		tc := float64(j - i)
		tieTerm += tc*tc*tc - tc
		i = j
	}
	var rA float64
	for i, o := range all {
		if o.from == 0 {
			rA += ranks[i]
		}
	}
	nA, nB := float64(len(a)), float64(len(b))
	u = rA - nA*(nA+1)/2
	// Normal approximation with tie-corrected variance.
	mean := nA * nB / 2
	nTot := nA + nB
	variance := nA * nB / 12 * (nTot + 1 - tieTerm/(nTot*(nTot-1)))
	if variance <= 0 {
		// Every observation ties with every other: the data carry no
		// ordering evidence at all, so the test is maximally inconclusive
		// (U must equal its null mean). Guard the comparisons anyway for
		// float safety.
		switch {
		case u < mean:
			return u, 0
		case u > mean:
			return u, 1
		}
		return u, 0.5
	}
	z := (u - mean) / math.Sqrt(variance)
	// One-sided: small U means a's values rank low, so the p-value for
	// the alternative "a smaller" is the lower tail P(U <= u) = Φ(z).
	pSmaller = 0.5 * math.Erfc(-z/math.Sqrt2)
	return u, pSmaller
}
