package graph

import (
	"errors"
	"fmt"

	"dispersion/internal/rng"
)

// maxAttempts bounds the rejection loops of the random generators. For the
// parameter regimes used in the experiments a handful of attempts suffice;
// hitting the bound indicates a caller error (e.g. p below the connectivity
// threshold) and is reported rather than looping forever.
const maxAttempts = 1000

// RandomRegular samples a simple d-regular graph on n vertices using the
// configuration model with rejection: d half-edges ("stubs") per vertex are
// paired uniformly at random, and the pairing is rejected if it contains a
// self-loop or parallel edge. For constant d the acceptance probability is
// bounded away from zero, and conditioned on acceptance the graph is
// uniform over simple d-regular graphs — the standard expander family used
// by Theorem 5.5. n·d must be even.
func RandomRegular(n, d int, r *rng.Source) (*CSR, error) {
	if d < 1 || d >= n {
		return nil, fmt.Errorf("graph: RandomRegular requires 1 <= d < n, got d=%d n=%d", d, n)
	}
	if n*d%2 != 0 {
		return nil, fmt.Errorf("graph: RandomRegular requires n*d even, got n=%d d=%d", n, d)
	}
	stubs := make([]int32, n*d)
	for attempt := 0; attempt < maxAttempts; attempt++ {
		for i := range stubs {
			stubs[i] = int32(i / d)
		}
		r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		b := NewBuilder(fmt.Sprintf("random-regular-%d-d%d", n, d), n)
		// Regularity is guaranteed by construction; skip detection except
		// at the degenerate degrees where the sample could coincide with a
		// closed-form family (d = 2 can be the canonical cycle, d = n-1 is
		// always K_n).
		if d >= 3 && d < n-1 {
			b.hint = func(g *CSR) Kernel { return regularKernel{adj: g.adj, deg: int32(d)} }
		}
		ok := true
		seen := make(map[[2]int32]bool, n*d/2)
		for i := 0; i < len(stubs); i += 2 {
			u, v := stubs[i], stubs[i+1]
			if u == v {
				ok = false
				break
			}
			if u > v {
				u, v = v, u
			}
			if seen[[2]int32{u, v}] {
				ok = false
				break
			}
			seen[[2]int32{u, v}] = true
			b.AddEdge(int(u), int(v))
		}
		if !ok {
			continue
		}
		g, err := b.Build()
		if err != nil {
			continue
		}
		if g.IsConnected() {
			return g, nil
		}
	}
	return nil, errors.New("graph: RandomRegular failed to produce a connected simple graph")
}

// GNP samples an Erdős–Rényi graph G(n, p) conditioned on connectivity,
// retrying up to maxAttempts times. The paper (Remark 5.6) uses G(n, p)
// with np >= c log n, c > 1, where connectivity holds w.h.p., so the
// conditioning is light.
func GNP(n int, p float64, r *rng.Source) (*CSR, error) {
	if n < 1 || !(p > 0 && p <= 1) { // NaN fails too
		return nil, fmt.Errorf("graph: GNP requires n >= 1 and 0 < p <= 1")
	}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		b := NewBuilder(fmt.Sprintf("gnp-%d-p%.4f", n, p), n)
		// Geometric skipping over the n(n-1)/2 potential edges, enumerated
		// as (0,1),(0,2),...,(0,n-1),(1,2),...: the gap to the next present
		// edge is Geometric(p), giving O(pn^2 + n) expected work instead of
		// O(n^2). The linear index is converted to a pair incrementally.
		total := int64(n) * int64(n-1) / 2
		pos := int64(-1)
		row, rowStart := 0, int64(0)
		for {
			pos += r.Geometric(p) + 1
			if pos >= total {
				break
			}
			for pos >= rowStart+int64(n-1-row) {
				rowStart += int64(n - 1 - row)
				row++
			}
			b.AddEdge(row, row+1+int(pos-rowStart))
		}
		g, err := b.Build()
		if err != nil {
			return nil, err
		}
		if g.IsConnected() {
			return g, nil
		}
	}
	return nil, errors.New("graph: GNP failed to produce a connected graph (p below threshold?)")
}

// RandomTree samples a uniformly random labelled tree on n vertices by
// decoding a uniform Prüfer sequence.
func RandomTree(n int, r *rng.Source) *CSR {
	if n < 1 {
		panic("graph: RandomTree requires n >= 1")
	}
	b := NewBuilder(fmt.Sprintf("random-tree-%d", n), n)
	if n == 1 {
		return b.MustBuild()
	}
	if n == 2 {
		b.AddEdge(0, 1)
		return b.MustBuild()
	}
	seq := make([]int, n-2)
	deg := make([]int, n)
	for i := range deg {
		deg[i] = 1
	}
	for i := range seq {
		seq[i] = r.Intn(n)
		deg[seq[i]]++
	}
	// Standard linear-time Prüfer decoding with a moving leaf pointer.
	ptr := 0
	for deg[ptr] != 1 {
		ptr++
	}
	leaf := ptr
	for _, v := range seq {
		b.AddEdge(leaf, v)
		deg[v]--
		if deg[v] == 1 && v < ptr {
			leaf = v
		} else {
			ptr++
			for deg[ptr] != 1 {
				ptr++
			}
			leaf = ptr
		}
	}
	// The two remaining degree-1 vertices are leaf and n-1.
	b.AddEdge(leaf, n-1)
	return b.MustBuild()
}
