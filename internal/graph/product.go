package graph

import "fmt"

// Comb returns the comb graph on a spine of length spine with a tooth
// (path) of length tooth hanging from every spine vertex — the comb
// lattice of the IDLA literature ([23] in the paper), a useful stress
// case because hitting times are dominated by teeth. Vertices: spine is
// 0..spine-1; tooth j of spine vertex i occupies spine + i*tooth + j.
func Comb(spine, tooth int) *CSR {
	if spine < 1 || tooth < 0 {
		panic("graph: Comb requires spine >= 1, tooth >= 0")
	}
	n := spine * (tooth + 1)
	b := NewBuilder(fmt.Sprintf("comb-%dx%d", spine, tooth), n)
	for i := 0; i+1 < spine; i++ {
		b.AddEdge(i, i+1)
	}
	for i := 0; i < spine; i++ {
		prev := i
		for j := 0; j < tooth; j++ {
			cur := spine + i*tooth + j
			b.AddEdge(prev, cur)
			prev = cur
		}
	}
	return b.MustBuild()
}

// Barbell returns two cliques of size k joined by a path of length
// bridge (bridge >= 1 edges, bridge-1 intermediate vertices): the classic
// slow-mixing gadget complementing the lollipop. Vertices 0..k-1 form the
// first clique, the last k vertices the second.
func Barbell(k, bridge int) *CSR {
	if k < 2 || bridge < 1 {
		panic("graph: Barbell requires k >= 2, bridge >= 1")
	}
	n := 2*k + bridge - 1
	b := NewBuilder(fmt.Sprintf("barbell-%d-%d", k, bridge), n)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			b.AddEdge(i, j)
			b.AddEdge(n-1-i, n-1-j)
		}
	}
	// Path from clique 1's vertex k-1 through the bridge to clique 2's
	// vertex n-k.
	for i := k - 1; i < n-k; i++ {
		b.AddEdge(i, i+1)
	}
	return b.MustBuild()
}
