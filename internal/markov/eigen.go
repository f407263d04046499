package markov

import (
	"fmt"
	"math"
	"sort"

	"dispersion/internal/graph"
)

// Spectrum holds the full eigenvalue decomposition of the random walk on a
// graph. The walk matrix P = D⁻¹A is similar to the symmetric matrix
// N = D^{-1/2} A D^{-1/2}, so its spectrum is real; eigenvalues are sorted
// in decreasing order (Values[0] = 1 for connected graphs).
type Spectrum struct {
	Values []float64
}

// WalkSpectrum computes the full spectrum of the simple random walk on g
// by Jacobi rotations on the normalised adjacency matrix. O(n³) per sweep
// with a handful of sweeps; intended for n up to ~1000.
func WalkSpectrum(g *graph.CSR) (*Spectrum, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("markov: empty graph")
	}
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
	}
	for u := 0; u < n; u++ {
		du := float64(g.Degree(u))
		for _, v := range g.Neighbors(u) {
			a[u][v] = 1 / math.Sqrt(du*float64(g.Degree(int(v))))
		}
	}
	vals, err := jacobiEigenvalues(a)
	if err != nil {
		return nil, err
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
	return &Spectrum{Values: vals}, nil
}

// Lambda2 returns the second-largest eigenvalue of the simple walk.
func (s *Spectrum) Lambda2() float64 {
	if len(s.Values) < 2 {
		return 0
	}
	return s.Values[1]
}

// LambdaMin returns the smallest eigenvalue (-1 exactly iff the graph is
// bipartite).
func (s *Spectrum) LambdaMin() float64 {
	return s.Values[len(s.Values)-1]
}

// LazyGap returns the spectral gap of the lazy chain, 1 - (1+λ2)/2 =
// (1-λ2)/2.
func (s *Spectrum) LazyGap() float64 {
	return (1 - s.Lambda2()) / 2
}

// jacobiEigenvalues runs the cyclic Jacobi method on a symmetric matrix,
// destroying it and returning the eigenvalues. Convergence is quadratic;
// the sweep count is capped defensively.
func jacobiEigenvalues(a [][]float64) ([]float64, error) {
	n := len(a)
	const maxSweeps = 60
	for sweep := 0; sweep < maxSweeps; sweep++ {
		// Off-diagonal Frobenius mass.
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += a[i][j] * a[i][j]
			}
		}
		if off < 1e-22 {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = a[i][i]
			}
			return vals, nil
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := a[p][q]
				if math.Abs(apq) < 1e-15 {
					continue
				}
				// Compute the rotation annihilating a[p][q].
				theta := (a[q][q] - a[p][p]) / (2 * apq)
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				// Apply the rotation to rows/cols p and q.
				for k := 0; k < n; k++ {
					akp, akq := a[k][p], a[k][q]
					a[k][p] = c*akp - s*akq
					a[k][q] = s*akp + c*akq
				}
				for k := 0; k < n; k++ {
					apk, aqk := a[p][k], a[q][k]
					a[p][k] = c*apk - s*aqk
					a[q][k] = s*apk + c*aqk
				}
			}
		}
	}
	return nil, fmt.Errorf("markov: Jacobi did not converge in %d sweeps", maxSweeps)
}
