package markov

import (
	"math"

	"dispersion/internal/graph"
	"dispersion/internal/rng"
)

// Spectral summarises the spectral quantities of the lazy walk
// P̃ = (I+P)/2 on a graph: its second-largest eigenvalue, the spectral gap
// and the relaxation time. The lazy chain has spectrum in [0, 1], so the
// second-largest eigenvalue is also the second-largest in absolute value.
type Spectral struct {
	Lambda2Lazy   float64 // second eigenvalue of the lazy chain
	Lambda2Simple float64 // corresponding eigenvalue 2λ̃-1 of the simple chain
	Gap           float64 // 1 - Lambda2Lazy
	Relaxation    float64 // 1 / Gap
}

// SpectralGap estimates the lazy chain's second eigenvalue by power
// iteration on the orthogonal complement (in ℓ²(π)) of the constant
// function. For reversible chains the iteration converges geometrically at
// rate λ3/λ2; maxIter bounds the work on slowly mixing graphs, and tol is
// the Rayleigh-quotient convergence threshold.
func SpectralGap(g *graph.CSR, maxIter int, tol float64) Spectral {
	n := g.N()
	pi := Stationary(g)
	r := rng.New(0x5eed)
	f := make([]float64, n)
	for i := range f {
		f[i] = r.Float64() - 0.5
	}
	pf := make([]float64, n)
	lambda, prev := 0.0, math.Inf(1)
	for iter := 0; iter < maxIter; iter++ {
		projectOutConstant(f, pi)
		normalize(f, pi)
		applyLazy(g, f, pf)
		lambda = dotPi(f, pf, pi)
		if math.Abs(lambda-prev) < tol {
			break
		}
		prev = lambda
		f, pf = pf, f
	}
	if lambda < 0 {
		lambda = 0
	}
	if lambda > 1 {
		lambda = 1
	}
	gap := 1 - lambda
	relax := math.Inf(1)
	if gap > 0 {
		relax = 1 / gap
	}
	return Spectral{
		Lambda2Lazy:   lambda,
		Lambda2Simple: 2*lambda - 1,
		Gap:           gap,
		Relaxation:    relax,
	}
}

// applyLazy computes pf = P̃ f, acting on functions: (Pf)(u) is the mean of
// f over the neighbours of u.
func applyLazy(g *graph.CSR, f, pf []float64) {
	for u := 0; u < g.N(); u++ {
		var s float64
		for _, v := range g.Neighbors(u) {
			s += f[v]
		}
		pf[u] = 0.5*f[u] + 0.5*s/float64(g.Degree(u))
	}
}

func projectOutConstant(f, pi []float64) {
	var mean float64
	for v := range f {
		mean += pi[v] * f[v]
	}
	for v := range f {
		f[v] -= mean
	}
}

func normalize(f, pi []float64) {
	var norm float64
	for v := range f {
		norm += pi[v] * f[v] * f[v]
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		return
	}
	for v := range f {
		f[v] /= norm
	}
}

func dotPi(f, gvec, pi []float64) float64 {
	var s float64
	for v := range f {
		s += pi[v] * f[v] * gvec[v]
	}
	return s
}
