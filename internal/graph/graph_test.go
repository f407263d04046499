package graph

import (
	"testing"
	"testing/quick"

	"dispersion/internal/rng"
)

func TestBuilderRejectsSelfLoop(t *testing.T) {
	b := NewBuilder("x", 3)
	b.AddEdge(1, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("self-loop accepted")
	}
}

func TestBuilderRejectsDuplicateEdge(t *testing.T) {
	b := NewBuilder("x", 3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	if _, err := b.Build(); err == nil {
		t.Fatal("duplicate edge accepted")
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	b := NewBuilder("x", 3)
	b.AddEdge(0, 3)
	if _, err := b.Build(); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}

func TestBuilderEmptyGraph(t *testing.T) {
	b := NewBuilder("x", 0)
	if _, err := b.Build(); err == nil {
		t.Fatal("zero-vertex graph accepted")
	}
}

func TestNeighborsSortedAndSymmetric(t *testing.T) {
	g := MustAny(t, Lollipop(11))
	for v := 0; v < g.N(); v++ {
		ns := g.Neighbors(v)
		for i, u := range ns {
			if i > 0 && ns[i-1] >= u {
				t.Fatalf("neighbours of %d not strictly sorted: %v", v, ns)
			}
			if !g.HasEdge(int(u), v) {
				t.Fatalf("edge {%d,%d} not symmetric", v, u)
			}
		}
	}
}

// MustAny passes through a graph, failing the test on nil; it exists so
// table-driven tests read uniformly for fallible and infallible builders.
func MustAny(t *testing.T, g *CSR) *CSR {
	t.Helper()
	if g == nil {
		t.Fatal("nil graph")
	}
	return g
}

func TestFamilyInvariants(t *testing.T) {
	r := rng.New(1)
	rr, err := RandomRegular(20, 3, r)
	if err != nil {
		t.Fatalf("RandomRegular: %v", err)
	}
	gnp, err := GNP(40, 0.3, r)
	if err != nil {
		t.Fatalf("GNP: %v", err)
	}
	cases := []struct {
		g         *CSR
		wantN     int
		wantM     int
		regular   bool
		bipartite bool
	}{
		{Path(10), 10, 9, false, true},
		{Cycle(10), 10, 10, true, true},
		{Cycle(11), 11, 11, true, false},
		{Complete(8), 8, 28, true, false},
		{Star(9), 9, 8, false, true},
		{Grid([]int{4, 5}, false), 20, 31, false, true},
		{Grid([]int{4, 4}, true), 16, 32, true, true},
		{Grid([]int{3, 3, 3}, true), 27, 81, true, false},
		{Hypercube(4), 16, 32, true, true},
		{CompleteBinaryTree(4), 15, 14, false, true},
		{Lollipop(11), 11, 20, false, false},
		{CliqueWithHair(10), 10, 37, false, false},
		{CliqueWithHairOnPimple(12, 4), 12, 49, false, false},
		{BinaryTreeWithPath(3, 4), 11, 10, false, true},
		{rr, 20, 30, true, false},
		{gnp, 40, gnp.M(), false, gnp.IsBipartite()},
	}
	for _, tc := range cases {
		g := tc.g
		if g.N() != tc.wantN {
			t.Errorf("%s: N = %d, want %d", g.Name(), g.N(), tc.wantN)
		}
		if g.M() != tc.wantM {
			t.Errorf("%s: M = %d, want %d", g.Name(), g.M(), tc.wantM)
		}
		if !g.IsConnected() {
			t.Errorf("%s: not connected", g.Name())
		}
		if g.IsRegular() != tc.regular {
			t.Errorf("%s: IsRegular = %v, want %v", g.Name(), g.IsRegular(), tc.regular)
		}
		if g.IsBipartite() != tc.bipartite {
			t.Errorf("%s: IsBipartite = %v, want %v", g.Name(), g.IsBipartite(), tc.bipartite)
		}
		if g.DegreeSum() != 2*g.M() {
			t.Errorf("%s: DegreeSum %d != 2M %d", g.Name(), g.DegreeSum(), 2*g.M())
		}
	}
}

func TestPathDegrees(t *testing.T) {
	g := Path(6)
	if g.Degree(0) != 1 || g.Degree(5) != 1 {
		t.Error("path endpoints should have degree 1")
	}
	for v := 1; v < 5; v++ {
		if g.Degree(v) != 2 {
			t.Errorf("interior path vertex %d degree %d", v, g.Degree(v))
		}
	}
}

func TestCompleteDegrees(t *testing.T) {
	g := Complete(7)
	for v := 0; v < 7; v++ {
		if g.Degree(v) != 6 {
			t.Errorf("K_7 vertex %d degree %d", v, g.Degree(v))
		}
	}
}

func TestStarStructure(t *testing.T) {
	g := Star(8)
	if g.Degree(0) != 7 {
		t.Errorf("star centre degree %d, want 7", g.Degree(0))
	}
	for v := 1; v < 8; v++ {
		if g.Degree(v) != 1 {
			t.Errorf("star leaf %d degree %d, want 1", v, g.Degree(v))
		}
	}
}

func TestHypercubeNeighbors(t *testing.T) {
	g := Hypercube(5)
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Neighbors(v) {
			diff := v ^ int(u)
			if diff&(diff-1) != 0 {
				t.Fatalf("hypercube edge {%d,%d} differs in more than one bit", v, u)
			}
		}
	}
}

func TestGridIndexRoundTrip(t *testing.T) {
	sides := []int{3, 4, 5}
	for v := 0; v < 60; v++ {
		if got := GridIndex(sides, GridCoords(sides, v)); got != v {
			t.Fatalf("GridIndex(GridCoords(%d)) = %d", v, got)
		}
	}
}

func TestGridTorusDegrees(t *testing.T) {
	g := Grid([]int{5, 5}, true)
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("2d torus vertex %d degree %d, want 4", v, g.Degree(v))
		}
	}
	box := Grid([]int{5, 5}, false)
	if box.Degree(0) != 2 {
		t.Errorf("2d box corner degree %d, want 2", box.Degree(0))
	}
}

func TestBinaryTreeStructure(t *testing.T) {
	g := CompleteBinaryTree(5)
	if g.Degree(0) != 2 {
		t.Errorf("root degree %d, want 2", g.Degree(0))
	}
	leaves := 0
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) == 1 {
			leaves++
		}
	}
	if leaves != 16 {
		t.Errorf("binary tree with 5 levels has %d leaves, want 16", leaves)
	}
	if g.M() != g.N()-1 {
		t.Error("tree must have n-1 edges")
	}
}

func TestLollipopStructure(t *testing.T) {
	n := 13
	g := Lollipop(n)
	k := (n + 1) / 2
	// Clique part has degree >= k-1.
	for v := 0; v < k-1; v++ {
		if g.Degree(v) != k-1 {
			t.Errorf("clique vertex %d degree %d, want %d", v, g.Degree(v), k-1)
		}
	}
	if g.Degree(k-1) != k {
		t.Errorf("junction vertex degree %d, want %d", g.Degree(k-1), k)
	}
	if g.Degree(n-1) != 1 {
		t.Errorf("path end degree %d, want 1", g.Degree(n-1))
	}
}

func TestCliqueWithHairStructure(t *testing.T) {
	g := CliqueWithHair(10)
	tip := HairTip(10)
	if g.Degree(tip) != 1 {
		t.Errorf("hair tip degree %d, want 1", g.Degree(tip))
	}
	if !g.HasEdge(0, tip) {
		t.Error("hair must attach to vertex 0")
	}
	if g.Degree(0) != 9 {
		t.Errorf("attachment vertex degree %d, want 9", g.Degree(0))
	}
}

func TestCliqueWithHairOnPimpleStructure(t *testing.T) {
	n, h := 20, 5
	g := CliqueWithHairOnPimple(n, h)
	v := PimpleVertex(n)
	if g.Degree(v) != h {
		t.Errorf("pimple degree %d, want %d (h-1 clique nbrs + hair)", g.Degree(v), h)
	}
	if g.Degree(HairTip(n)) != 1 {
		t.Error("hair tip must have degree 1")
	}
	if !g.HasEdge(v, HairTip(n)) {
		t.Error("hair must attach to pimple")
	}
}

func TestBinaryTreeWithPathStructure(t *testing.T) {
	g := BinaryTreeWithPath(4, 6)
	tN := 15
	if g.N() != tN+6 {
		t.Fatalf("N = %d", g.N())
	}
	if g.M() != g.N()-1 {
		t.Fatal("must be a tree")
	}
	if !g.HasEdge(0, tN) {
		t.Error("path must attach to the root")
	}
	if g.Degree(g.N()-1) != 1 {
		t.Error("path far end must be a leaf")
	}
}

func TestRandomRegularProperties(t *testing.T) {
	r := rng.New(99)
	for _, tc := range []struct{ n, d int }{{10, 3}, {50, 4}, {100, 3}} {
		g, err := RandomRegular(tc.n, tc.d, r)
		if err != nil {
			t.Fatalf("RandomRegular(%d,%d): %v", tc.n, tc.d, err)
		}
		for v := 0; v < g.N(); v++ {
			if g.Degree(v) != tc.d {
				t.Fatalf("vertex %d degree %d, want %d", v, g.Degree(v), tc.d)
			}
		}
		if !g.IsConnected() {
			t.Fatal("disconnected regular graph returned")
		}
	}
}

func TestRandomRegularRejectsOddProduct(t *testing.T) {
	if _, err := RandomRegular(5, 3, rng.New(1)); err == nil {
		t.Fatal("odd n*d accepted")
	}
}

func TestGNPEdgeCount(t *testing.T) {
	r := rng.New(7)
	n, p := 200, 0.1
	g, err := GNP(n, p, r)
	if err != nil {
		t.Fatal(err)
	}
	want := p * float64(n*(n-1)) / 2
	if float64(g.M()) < want*0.8 || float64(g.M()) > want*1.2 {
		t.Errorf("G(%d,%g) has %d edges, want ~%.0f", n, p, g.M(), want)
	}
}

func TestRandomTreeIsTree(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		g := RandomTree(n, rng.New(seed))
		return g.N() == n && g.M() == n-1 && g.IsConnected()
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDiameterKnownValues(t *testing.T) {
	cases := []struct {
		g    *CSR
		want int
	}{
		{Path(10), 9},
		{Cycle(10), 5},
		{Cycle(11), 5},
		{Complete(6), 1},
		{Star(7), 2},
		{Hypercube(6), 6},
		{CompleteBinaryTree(4), 6},
	}
	for _, tc := range cases {
		if got := tc.g.Diameter(); got != tc.want {
			t.Errorf("%s: diameter %d, want %d", tc.g.Name(), got, tc.want)
		}
	}
}

func TestBFSDistancesOnPath(t *testing.T) {
	g := Path(8)
	d := g.BFS(0)
	for v := 0; v < 8; v++ {
		if d[v] != int32(v) {
			t.Fatalf("BFS dist to %d = %d", v, d[v])
		}
	}
}
