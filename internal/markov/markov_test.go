package markov

import (
	"math"
	"testing"

	"dispersion/internal/graph"
	"dispersion/internal/rng"
)

func almost(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s: got %.6f, want %.6f (tol %g)", msg, got, want, tol)
	}
}

func TestStationarySumsToOne(t *testing.T) {
	for _, g := range []*graph.CSR{graph.Path(9), graph.Complete(6), graph.Lollipop(12)} {
		pi := Stationary(g)
		var s float64
		for _, p := range pi {
			s += p
		}
		almost(t, s, 1, 1e-12, g.Name()+" stationary sum")
	}
}

func TestStationaryProportionalToDegree(t *testing.T) {
	g := graph.Star(10)
	pi := Stationary(g)
	almost(t, pi[0], 9.0/18.0, 1e-12, "star centre")
	almost(t, pi[3], 1.0/18.0, 1e-12, "star leaf")
}

func TestStepPreservesMass(t *testing.T) {
	g := graph.Lollipop(15)
	cur := make([]float64, g.N())
	next := make([]float64, g.N())
	cur[2] = 1
	for i := 0; i < 50; i++ {
		Step(g, cur, next, i%2 == 0)
		cur, next = next, cur
		var s float64
		for _, p := range cur {
			s += p
		}
		almost(t, s, 1, 1e-9, "mass after step")
	}
}

func TestStationaryIsFixedPoint(t *testing.T) {
	g := graph.CliqueWithHair(9)
	pi := Stationary(g)
	next := make([]float64, g.N())
	Step(g, pi, next, false)
	almost(t, TVDistance(pi, next), 0, 1e-12, "simple-walk fixed point")
	Step(g, pi, next, true)
	almost(t, TVDistance(pi, next), 0, 1e-12, "lazy-walk fixed point")
}

func TestMixingTimeCompleteIsTiny(t *testing.T) {
	g := graph.Complete(64)
	tm := MixingTime(g, 1000)
	if tm > 10 {
		t.Errorf("K_64 lazy mixing time %d, want O(1)", tm)
	}
}

func TestMixingTimeCycleQuadratic(t *testing.T) {
	t32 := MixingTime(graph.Cycle(32), 1<<20)
	t64 := MixingTime(graph.Cycle(64), 1<<20)
	ratio := float64(t64) / float64(t32)
	// Doubling n should roughly quadruple t_mix = Θ(n²).
	if ratio < 3 || ratio > 5.5 {
		t.Errorf("cycle mixing ratio t(64)/t(32) = %.2f, want ~4", ratio)
	}
}

func TestMixingTimeExactMatchesCandidatesOnCycle(t *testing.T) {
	g := graph.Cycle(17)
	a := MixingTime(g, 1<<16)
	b := 0 // the exact worst case over every start
	for v := 0; v < g.N(); v++ {
		b = max(b, MixingTimeFrom(g, v, 0.25, 1<<16))
	}
	if a != b {
		t.Errorf("vertex-transitive graph: candidate mixing %d != exact %d", a, b)
	}
}

func TestHittingPathQuadratic(t *testing.T) {
	g := graph.Path(20)
	h, err := NewHitting(g)
	if err != nil {
		t.Fatal(err)
	}
	// On the path, H(0, k) = k^2.
	for _, k := range []int{1, 2, 5, 10, 19} {
		almost(t, h.Hit(0, k), float64(k*k), 1e-6, "path H(0,k)")
	}
	// And H(k, 0) = ... by symmetry H(n-1-k', ...); check H(19, 0) = 361.
	almost(t, h.Hit(19, 0), 361, 1e-6, "path H(19,0)")
}

func TestHittingCycleFormula(t *testing.T) {
	n := 16
	g := graph.Cycle(n)
	h, err := NewHitting(g)
	if err != nil {
		t.Fatal(err)
	}
	// On the cycle, H(u, v) = d(n-d) with d the graph distance.
	for d := 1; d <= n/2; d++ {
		almost(t, h.Hit(0, d), float64(d*(n-d)), 1e-6, "cycle H by distance")
	}
}

func TestHittingComplete(t *testing.T) {
	n := 12
	g := graph.Complete(n)
	h, err := NewHitting(g)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, h.Hit(0, 5), float64(n-1), 1e-6, "K_n hitting time")
	maxH, _, _ := h.Max()
	almost(t, maxH, float64(n-1), 1e-6, "K_n max hitting time")
}

func TestHittingStarEssentialEdge(t *testing.T) {
	n := 10
	g := graph.Star(n)
	h, err := NewHitting(g)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, h.Hit(1, 0), 1, 1e-6, "leaf to centre")
	almost(t, h.Hit(0, 1), float64(2*n-3), 1e-6, "centre to leaf")
	almost(t, h.Hit(1, 2), float64(2*n-2), 1e-6, "leaf to leaf")
}

func TestCommuteIdentity(t *testing.T) {
	g := graph.Lollipop(14)
	h, err := NewHitting(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]int{{0, 13}, {3, 9}, {6, 7}} {
		u, v := pair[0], pair[1]
		// The effective resistance R(u,v) comes from the same Laplacian
		// pseudo-inverse that Hit reads, by the series formula.
		resistance := h.pinv.At(u, u) + h.pinv.At(v, v) - 2*h.pinv.At(u, v)
		almost(t, h.Hit(u, v)+h.Hit(v, u), 2*float64(g.M())*resistance, 1e-5,
			"commute = 2m R")
	}
}

func TestTreeHitMatchesDense(t *testing.T) {
	g := graph.CompleteBinaryTree(4)
	h, err := NewHitting(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]int{{0, 14}, {14, 0}, {7, 10}, {3, 0}} {
		u, v := pair[0], pair[1]
		almost(t, TreeHit(g, u, v), h.Hit(u, v), 1e-5, "tree hit vs dense")
	}
}

func TestTreeHitRandomTrees(t *testing.T) {
	r := rng.New(123)
	for trial := 0; trial < 5; trial++ {
		g := graph.RandomTree(24, r)
		h, err := NewHitting(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range [][2]int{{0, 23}, {5, 17}, {11, 2}} {
			almost(t, TreeHit(g, pair[0], pair[1]), h.Hit(pair[0], pair[1]), 1e-5,
				"random tree hit")
		}
	}
}

func TestSpectralGapComplete(t *testing.T) {
	n := 32
	s := SpectralGap(graph.Complete(n), 5000, 1e-12)
	// Simple K_n: λ2 = -1/(n-1); lazy: (1 - 1/(n-1))/2.
	wantLazy := (1 - 1.0/float64(n-1)) / 2
	almost(t, s.Lambda2Lazy, wantLazy, 1e-6, "K_n lazy lambda2")
}

func TestSpectralGapCycle(t *testing.T) {
	n := 24
	s := SpectralGap(graph.Cycle(n), 200000, 1e-14)
	wantLazy := (1 + math.Cos(2*math.Pi/float64(n))) / 2
	almost(t, s.Lambda2Lazy, wantLazy, 1e-5, "cycle lazy lambda2")
}

func TestSpectralGapHypercube(t *testing.T) {
	k := 6
	s := SpectralGap(graph.Hypercube(k), 50000, 1e-13)
	// Simple hypercube: λ2 = 1 - 2/k; lazy: 1 - 1/k.
	almost(t, s.Lambda2Lazy, 1-1.0/float64(k), 1e-6, "hypercube lazy lambda2")
}

func TestExpanderHasConstantGap(t *testing.T) {
	r := rng.New(77)
	g, err := graph.RandomRegular(256, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	s := SpectralGap(g, 20000, 1e-12)
	if s.Gap < 0.05 {
		t.Errorf("random 4-regular gap %.4f, expected bounded away from 0", s.Gap)
	}
}

func TestConductanceCompleteAndCycle(t *testing.T) {
	// K_4: every cut S with |S|=1: cut=3, vol=3 → 1; |S|=2: cut=4, vol=6 → 2/3.
	almost(t, conductance(graph.Complete(4)), 2.0/3.0, 1e-12, "K_4 conductance")
	// C_8: best cut is an arc of 4 vertices: cut=2, vol=8 → 1/4.
	almost(t, conductance(graph.Cycle(8)), 0.25, 1e-12, "C_8 conductance")
}

func TestCheegerRelation(t *testing.T) {
	// Φ²/2 <= gap(simple chain... use lazy gap vs lazy conductance Φ/2.
	for _, g := range []*graph.CSR{graph.Cycle(12), graph.Complete(8), graph.Path(10)} {
		phi := conductance(g) / 2 // lazy walk halves edge flow
		s := SpectralGap(g, 100000, 1e-13)
		if s.Gap > 2*phi+1e-9 {
			t.Errorf("%s: lazy gap %.4f exceeds 2Φ̃ = %.4f (Cheeger upper)", g.Name(), s.Gap, 2*phi)
		}
		if s.Gap < phi*phi/2-1e-9 {
			t.Errorf("%s: lazy gap %.4f below Φ̃²/2 = %.4f (Cheeger lower)", g.Name(), s.Gap, phi*phi/2)
		}
	}
}

func TestLUSolveKnownSystem(t *testing.T) {
	m := NewDense(3)
	vals := [][]float64{{2, 1, 0}, {1, 3, 1}, {0, 1, 4}}
	for i := range vals {
		for j, v := range vals[i] {
			m.Set(i, j, v)
		}
	}
	f, err := m.Factor()
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.Solve([]float64{3, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	// Verify residual instead of hand-solving.
	for i := range vals {
		var s float64
		for j := range vals[i] {
			s += vals[i][j] * x[j]
		}
		almost(t, s, []float64{3, 5, 5}[i], 1e-10, "LU residual")
	}
}

func TestLUSingularDetected(t *testing.T) {
	m := NewDense(2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 2)
	m.Set(1, 1, 4)
	if _, err := m.Factor(); err == nil {
		t.Fatal("singular matrix factored without error")
	}
}

func TestInverseRoundTrip(t *testing.T) {
	m := NewDense(4)
	r := rng.New(2)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			m.Set(i, j, r.Float64())
		}
		m.Add(i, i, 4) // diagonally dominant, well-conditioned
	}
	inv, err := m.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			var s float64
			for k := 0; k < 4; k++ {
				s += m.At(i, k) * inv.At(k, j)
			}
			want := 0.0
			if i == j {
				want = 1
			}
			almost(t, s, want, 1e-10, "A·A⁻¹ = I")
		}
	}
}

func TestLollipopHittingCubic(t *testing.T) {
	// The lollipop's clique-to-path-end hitting time is Θ(n³); check growth.
	h1, err := NewHitting(graph.Lollipop(16))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := NewHitting(graph.Lollipop(32))
	if err != nil {
		t.Fatal(err)
	}
	a := h1.Hit(0, 15)
	b := h2.Hit(0, 31)
	ratio := b / a
	if ratio < 6 || ratio > 10 {
		t.Errorf("lollipop hitting growth %.2f on doubling, want ~8 (cubic)", ratio)
	}
}

// conductance computes the exact conductance of the simple walk,
// Φ = min over ∅ ≠ S, π(S) <= 1/2 of |E(S, S̄)| / vol(S), by enumerating
// all 2^(n-1) cuts: the reference the Cheeger test holds SpectralGap to.
func conductance(g *graph.CSR) float64 {
	n := g.N()
	vol2 := g.DegreeSum()
	best := math.Inf(1)
	// Fix vertex 0 out of S to halve the enumeration (Φ(S) vs Φ(S̄) are
	// both considered via the π(S) <= 1/2 filter on each complement pair).
	for mask := 1; mask < 1<<(n-1); mask++ {
		volS, volC, cut := 0, 0, 0
		for v := 0; v < n; v++ {
			inS := v > 0 && mask&(1<<(v-1)) != 0
			if inS {
				volS += g.Degree(v)
			} else {
				volC += g.Degree(v)
			}
			for _, u := range g.Neighbors(v) {
				inU := u > 0 && mask&(1<<(u-1)) != 0
				if inS != inU {
					cut++
				}
			}
		}
		cut /= 2 // each cut edge counted from both sides
		for _, vol := range []int{volS, volC} {
			if vol == 0 || 2*vol > vol2 {
				continue
			}
			if phi := float64(cut) / float64(vol); phi < best {
				best = phi
			}
		}
	}
	return best
}
