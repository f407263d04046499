package graph

import (
	"fmt"
	"testing"
)

// isomorphicByDegreesAndEdges is a cheap structural comparison sufficient
// for the identity tests below where the vertex correspondence is known
// to be the identity (same index construction).
func sameGraph(t *testing.T, a, b *CSR) {
	t.Helper()
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatalf("size mismatch: %d/%d vs %d/%d", a.N(), a.M(), b.N(), b.M())
	}
	for v := 0; v < a.N(); v++ {
		na, nb := a.Neighbors(v), b.Neighbors(v)
		if len(na) != len(nb) {
			t.Fatalf("vertex %d degree %d vs %d", v, len(na), len(nb))
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("vertex %d neighbour sets differ", v)
			}
		}
	}
}

// cartesian returns the Cartesian product G □ H: vertices are pairs
// (u, h) indexed as u*H.N()+h, with (u,h) ~ (u',h') iff u=u' and h~h', or
// h=h' and u~u'. Grids are products of paths, tori products of cycles,
// and the hypercube is an iterated product of K_2: the reference the
// identity tests below hold those constructors to.
func cartesian(g, h *CSR) *CSR {
	gn, hn := g.N(), h.N()
	b := NewBuilder(fmt.Sprintf("(%s)x(%s)", g.Name(), h.Name()), gn*hn)
	for u := 0; u < gn; u++ {
		for x := 0; x < hn; x++ {
			for _, y := range h.Neighbors(x) {
				if x < int(y) {
					b.AddEdge(u*hn+x, u*hn+int(y))
				}
			}
			for _, v := range g.Neighbors(u) {
				if u < int(v) {
					b.AddEdge(u*hn+x, int(v)*hn+x)
				}
			}
		}
	}
	return b.MustBuild()
}

func TestCartesianGridIdentity(t *testing.T) {
	// P_a □ P_b == Grid([a,b]) under row-major indexing.
	sameGraph(t, cartesian(Path(4), Path(5)), Grid([]int{4, 5}, false))
}

func TestCartesianTorusIdentity(t *testing.T) {
	sameGraph(t, cartesian(Cycle(4), Cycle(5)), Grid([]int{4, 5}, true))
}

func TestCartesianHypercubeIdentity(t *testing.T) {
	k2 := Path(2) // K_2
	q := k2
	for i := 1; i < 4; i++ {
		q = cartesian(q, k2)
	}
	h := Hypercube(4)
	if q.N() != h.N() || q.M() != h.M() || !q.IsRegular() {
		t.Fatalf("iterated K_2 product: n=%d m=%d regular=%v", q.N(), q.M(), q.IsRegular())
	}
	// Degree check suffices with regularity + size (both are 4-regular
	// bipartite connected vertex-transitive on 16 vertices).
	if q.Degree(0) != 4 {
		t.Fatalf("product degree %d", q.Degree(0))
	}
}

func TestCartesianConnectedness(t *testing.T) {
	g := cartesian(Star(4), Cycle(3))
	if !g.IsConnected() {
		t.Fatal("product of connected graphs must be connected")
	}
	if g.N() != 12 {
		t.Fatalf("N = %d", g.N())
	}
	// m(G□H) = n_G·m_H + n_H·m_G.
	if g.M() != 4*3+3*3 {
		t.Fatalf("M = %d, want 21", g.M())
	}
}

func TestCombStructure(t *testing.T) {
	g := Comb(5, 3)
	if g.N() != 20 || g.M() != 19 {
		t.Fatalf("comb size %d/%d", g.N(), g.M())
	}
	if !g.IsConnected() {
		t.Fatal("comb disconnected")
	}
	// Tooth tips are leaves.
	for i := 0; i < 5; i++ {
		tip := 5 + i*3 + 2
		if g.Degree(tip) != 1 {
			t.Errorf("tooth tip %d degree %d", tip, g.Degree(tip))
		}
	}
	// Interior spine vertices: 2 spine edges + 1 tooth.
	if g.Degree(2) != 3 {
		t.Errorf("interior spine degree %d, want 3", g.Degree(2))
	}
}

func TestCombZeroTeethIsPath(t *testing.T) {
	sameGraph(t, Comb(6, 0), Path(6))
}

func TestBarbellStructure(t *testing.T) {
	g := Barbell(5, 3)
	if g.N() != 12 || !g.IsConnected() {
		t.Fatalf("barbell n=%d connected=%v", g.N(), g.IsConnected())
	}
	// Two cliques of 5: 2*10 edges + 3 bridge edges.
	if g.M() != 23 {
		t.Fatalf("barbell m=%d, want 23", g.M())
	}
	if g.Degree(0) != 4 || g.Degree(11) != 4 {
		t.Error("clique interior degrees wrong")
	}
	// Bridge midpoints have degree 2.
	if g.Degree(5) != 2 {
		t.Errorf("bridge vertex degree %d, want 2", g.Degree(5))
	}
}

func TestBarbellBottleneck(t *testing.T) {
	// Sanity on intent: the clique side of the bridge forms a cut of one
	// edge with large volume, so the conductance is at most 1/vol.
	g := Barbell(4, 2)
	vol := 0
	for v := 0; v < 4; v++ {
		vol += g.Degree(v)
	}
	if 1.0/float64(vol) > 0.09 {
		t.Fatalf("barbell bridge cut not small: 1/%d", vol)
	}
}
