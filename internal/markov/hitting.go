package markov

import (
	"fmt"
	"math"

	"dispersion/internal/graph"
)

// Hitting holds the all-pairs hitting-time structure of the simple random
// walk on a graph, computed once from the Moore-Penrose pseudo-inverse of
// the graph Laplacian. Construction is O(n^3); queries are O(1).
//
// The identities used (see e.g. Lovász's survey [34] in the paper):
//
//	R(u,v)   = L⁺(u,u) + L⁺(v,v) - 2 L⁺(u,v)           (effective resistance)
//	C(u,v)   = 2|E| · R(u,v)                            (commute time)
//	H(u,v)   = s(u) - s(v) + 2|E|·(L⁺(v,v) - L⁺(u,v))   (hitting time)
//
// where s(u) = Σ_w deg(w)·L⁺(u,w).
type Hitting struct {
	g     *graph.CSR
	pinv  *Dense
	s     []float64
	edges float64
}

// NewHitting computes the hitting-time structure for g. It fails only if
// the dense solve does (which for a connected graph's shifted Laplacian
// does not happen).
func NewHitting(g *graph.CSR) (*Hitting, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("markov: empty graph")
	}
	// L + J/n is invertible for connected graphs, and
	// (L + J/n)^{-1} = L⁺ + J/n because L⁺ and L share eigenvectors and
	// J/n is the projector onto the kernel.
	m := NewDense(n)
	inv := 1.0 / float64(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			m.Set(u, v, inv)
		}
		m.Add(u, u, float64(g.Degree(u)))
		for _, v := range g.Neighbors(u) {
			m.Add(u, int(v), -1)
		}
	}
	pinv, err := m.Inverse()
	if err != nil {
		return nil, fmt.Errorf("markov: laplacian solve: %w", err)
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			pinv.Add(u, v, -inv)
		}
	}
	h := &Hitting{g: g, pinv: pinv, edges: float64(g.M())}
	h.s = make([]float64, n)
	for u := 0; u < n; u++ {
		var acc float64
		for w := 0; w < n; w++ {
			acc += float64(g.Degree(w)) * pinv.At(u, w)
		}
		h.s[u] = acc
	}
	return h, nil
}

// EffectiveResistance returns R(u,v).
func (h *Hitting) EffectiveResistance(u, v int) float64 {
	if u == v {
		return 0
	}
	return h.pinv.At(u, u) + h.pinv.At(v, v) - 2*h.pinv.At(u, v)
}

// Commute returns the commute time C(u,v) = H(u,v) + H(v,u).
func (h *Hitting) Commute(u, v int) float64 {
	return 2 * h.edges * h.EffectiveResistance(u, v)
}

// Hit returns the expected hitting time H(u, v) of v by a simple random
// walk from u.
func (h *Hitting) Hit(u, v int) float64 {
	if u == v {
		return 0
	}
	return h.s[u] - h.s[v] + 2*h.edges*(h.pinv.At(v, v)-h.pinv.At(u, v))
}

// Max returns t_hit(G) = max_{u,v} H(u,v) together with an attaining pair.
func (h *Hitting) Max() (float64, int, int) {
	best, bu, bv := math.Inf(-1), 0, 0
	n := h.g.N()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			if t := h.Hit(u, v); t > best {
				best, bu, bv = t, u, v
			}
		}
	}
	return best, bu, bv
}

// HitSetFrom returns the expected time for the simple (or lazy) walk to
// hit the set S, for every start vertex, by solving the absorbing linear
// system (I - Q) h = 1 over the complement of S with dense LU. Entries of
// S get 0. Laziness exactly doubles off-set transition costs, so the lazy
// values are 2x the simple ones; both are offered because the paper's
// Section 3 bounds are stated for the lazy walk.
func HitSetFrom(g *graph.CSR, set []int, lazy bool) ([]float64, error) {
	n := g.N()
	inSet := make([]bool, n)
	for _, v := range set {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("markov: set vertex %d out of range", v)
		}
		inSet[v] = true
	}
	// Index the transient (non-set) states.
	idx := make([]int, n)
	var transient []int
	for v := 0; v < n; v++ {
		if !inSet[v] {
			idx[v] = len(transient)
			transient = append(transient, v)
		}
	}
	if len(transient) == 0 {
		return make([]float64, n), nil
	}
	t := len(transient)
	m := NewDense(t)
	for i, u := range transient {
		m.Set(i, i, 1)
		p := 1.0 / float64(g.Degree(u))
		if lazy {
			p /= 2
			m.Add(i, i, -0.5)
		}
		for _, v := range g.Neighbors(u) {
			if !inSet[int(v)] {
				m.Add(i, idx[v], -p)
			}
		}
	}
	f, err := m.Factor()
	if err != nil {
		return nil, err
	}
	ones := make([]float64, t)
	for i := range ones {
		ones[i] = 1
	}
	sol, err := f.Solve(ones)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i, u := range transient {
		out[u] = sol[i]
	}
	return out, nil
}

// HitSetFromDist returns t_hit(mu, S): the expected hitting time of S from
// the initial distribution mu.
func HitSetFromDist(g *graph.CSR, set []int, mu []float64, lazy bool) (float64, error) {
	h, err := HitSetFrom(g, set, lazy)
	if err != nil {
		return 0, err
	}
	var acc float64
	for v, p := range mu {
		acc += p * h[v]
	}
	return acc, nil
}

// TreeHit returns the exact hitting time H(u, v) on a tree in O(n·dist)
// time using the essential-edge lemma ([2, Lemma 5.1] in the paper):
// crossing the edge {a, b} towards v takes 2|A(a,b)| - 1 expected steps,
// where A(a,b) is the component of a after removing the edge. It panics if
// g is not a tree.
func TreeHit(g *graph.CSR, u, v int) float64 {
	if g.M() != g.N()-1 {
		panic("markov: TreeHit requires a tree")
	}
	if u == v {
		return 0
	}
	// Path from u to v via BFS parents from v.
	parent := make([]int32, g.N())
	for i := range parent {
		parent[i] = -1
	}
	parent[v] = int32(v)
	queue := []int32{int32(v)}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, y := range g.Neighbors(int(x)) {
			if parent[y] < 0 {
				parent[y] = x
				queue = append(queue, y)
			}
		}
	}
	var total float64
	for a := u; a != v; {
		b := int(parent[a])
		// Size of the component containing a after removing {a,b}:
		// count vertices whose path to v passes through a.
		size := subtreeSizeAway(g, a, b)
		total += float64(2*size - 1)
		a = b
	}
	return total
}

// subtreeSizeAway returns the number of vertices in the component of a
// when the tree edge {a, b} is removed.
func subtreeSizeAway(g *graph.CSR, a, b int) int {
	count := 0
	stack := []int32{int32(a)}
	visited := map[int32]bool{int32(a): true, int32(b): true}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		for _, y := range g.Neighbors(int(x)) {
			if !visited[y] {
				visited[y] = true
				stack = append(stack, y)
			}
		}
	}
	return count
}
