// Package walk provides the deterministic parallel trial runner every
// Engine run and experiment goes through, and the Monte-Carlo cover-time
// estimator of the paper's Table 1.
package walk

import (
	"dispersion/internal/graph"
	"dispersion/internal/rng"
)

// CoverTime runs a simple random walk from start until every vertex has
// been visited, returning the number of steps. maxSteps caps the walk.
func CoverTime(g *graph.CSR, start int, maxSteps int64, r *rng.Source) (int64, bool) {
	kern := g.Kernel()
	visited := make([]bool, g.N())
	visited[start] = true
	remaining := g.N() - 1
	v := int32(start)
	var t int64
	for remaining > 0 {
		if t >= maxSteps {
			return maxSteps, false
		}
		v = kern.Step(v, r)
		t++
		if !visited[v] {
			visited[v] = true
			remaining--
		}
	}
	return t, true
}
