// Package markov provides the Markov-chain analytics layer for random walks
// on finite graphs: stationary distributions, distribution evolution,
// total-variation mixing times, spectral gaps, and exact hitting times
// via the Laplacian pseudo-inverse. These are the quantities the
// paper's bounds (Theorems 2-4) are phrased in.
package markov

import (
	"math"

	"dispersion/internal/graph"
)

// Stationary returns the stationary distribution of the simple (and lazy)
// random walk on g: π(v) = deg(v) / (2|E|).
func Stationary(g *graph.CSR) []float64 {
	pi := make([]float64, g.N())
	norm := float64(g.DegreeSum())
	for v := range pi {
		pi[v] = float64(g.Degree(v)) / norm
	}
	return pi
}

// Step advances a probability distribution one step of the walk: dst[v] =
// sum over u ~ v of src[u]/deg(u), mixed with src for the lazy walk
// P̃ = (I+P)/2. src and dst must have length g.N() and must not alias.
func Step(g *graph.CSR, src, dst []float64, lazy bool) {
	for i := range dst {
		dst[i] = 0
	}
	for u := 0; u < g.N(); u++ {
		if src[u] == 0 {
			continue
		}
		share := src[u] / float64(g.Degree(u))
		for _, v := range g.Neighbors(u) {
			dst[v] += share
		}
	}
	if lazy {
		for v := range dst {
			dst[v] = 0.5*dst[v] + 0.5*src[v]
		}
	}
}

// TVDistance returns the total-variation distance between two
// distributions: half the L1 distance.
func TVDistance(p, q []float64) float64 {
	var s float64
	for i := range p {
		s += math.Abs(p[i] - q[i])
	}
	return s / 2
}

// MixingTimeFrom returns the smallest t with TV(P̃^t(v,·), π) <= eps for
// the lazy walk started at v, or maxSteps+1 if not reached within
// maxSteps. The lazy walk is used because the simple walk does not mix on
// bipartite graphs (the paper's Section 3.1.1 makes the same switch).
func MixingTimeFrom(g *graph.CSR, v int, eps float64, maxSteps int) int {
	pi := Stationary(g)
	cur := make([]float64, g.N())
	next := make([]float64, g.N())
	cur[v] = 1
	for t := 0; t <= maxSteps; t++ {
		if TVDistance(cur, pi) <= eps {
			return t
		}
		Step(g, cur, next, true)
		cur, next = next, cur
	}
	return maxSteps + 1
}

// MixingTime returns max over a set of candidate start vertices of
// MixingTimeFrom with the standard eps = 1/4. For vertex-transitive graphs
// any start is exact; otherwise the candidates (an extremal-eccentricity
// vertex, a max-degree vertex, a min-degree vertex and vertex 0) capture
// the worst start for every family in this repository. Computing the true
// max over all n starts is O(n·M·t_mix) and available as MixingTimeExact.
func MixingTime(g *graph.CSR, maxSteps int) int {
	cands := candidateStarts(g)
	worst := 0
	for _, v := range cands {
		if t := MixingTimeFrom(g, v, 0.25, maxSteps); t > worst {
			worst = t
		}
	}
	return worst
}

func candidateStarts(g *graph.CSR) []int {
	maxDeg, minDeg := 0, 0
	for v := 1; v < g.N(); v++ {
		if g.Degree(v) > g.Degree(maxDeg) {
			maxDeg = v
		}
		if g.Degree(v) < g.Degree(minDeg) {
			minDeg = v
		}
	}
	// A vertex of maximum distance from vertex 0 is an eccentric start.
	far := 0
	d := g.BFS(0)
	for v, dv := range d {
		if dv > d[far] {
			far = v
		}
	}
	return dedupe([]int{0, far, maxDeg, minDeg})
}

func dedupe(xs []int) []int {
	seen := map[int]bool{}
	out := xs[:0]
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}
