package markov

import (
	"math"
	"testing"

	"dispersion/internal/graph"
	"dispersion/internal/rng"
)

func TestWalkSpectrumComplete(t *testing.T) {
	// K_n: eigenvalue 1 once, -1/(n-1) with multiplicity n-1.
	n := 10
	s, err := WalkSpectrum(graph.Complete(n))
	if err != nil {
		t.Fatal(err)
	}
	almost(t, s.Values[0], 1, 1e-9, "top eigenvalue")
	for i := 1; i < n; i++ {
		almost(t, s.Values[i], -1.0/float64(n-1), 1e-9, "bulk eigenvalue")
	}
}

func TestWalkSpectrumCycle(t *testing.T) {
	// C_n: eigenvalues cos(2πk/n), k = 0..n-1.
	n := 12
	s, err := WalkSpectrum(graph.Cycle(n))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, 0, n)
	for k := 0; k < n; k++ {
		want = append(want, math.Cos(2*math.Pi*float64(k)/float64(n)))
	}
	// Sort want decreasing.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if want[j] > want[i] {
				want[i], want[j] = want[j], want[i]
			}
		}
	}
	for i := range want {
		almost(t, s.Values[i], want[i], 1e-9, "cycle eigenvalue")
	}
}

func TestWalkSpectrumHypercube(t *testing.T) {
	// Q_k: eigenvalues 1 - 2i/k with multiplicity C(k, i).
	k := 4
	s, err := WalkSpectrum(graph.Hypercube(k))
	if err != nil {
		t.Fatal(err)
	}
	almost(t, s.Lambda2(), 1-2.0/float64(k), 1e-9, "hypercube lambda2")
	almost(t, s.LambdaMin(), -1, 1e-9, "hypercube bipartite lambda_min")
}

func TestWalkSpectrumPathStar(t *testing.T) {
	// P_n: eigenvalues cos(πk/(n-1)), k = 0..n-1.
	n := 8
	s, err := WalkSpectrum(graph.Path(n))
	if err != nil {
		t.Fatal(err)
	}
	almost(t, s.Lambda2(), math.Cos(math.Pi/float64(n-1)), 1e-9, "path lambda2")
	// Star: spectrum {1, 0^(n-2), -1}.
	st, err := WalkSpectrum(graph.Star(9))
	if err != nil {
		t.Fatal(err)
	}
	almost(t, st.Lambda2(), 0, 1e-9, "star lambda2")
	almost(t, st.LambdaMin(), -1, 1e-9, "star lambda_min")
}

func TestSpectrumSumIsZero(t *testing.T) {
	// trace(P) = 0 for simple graphs (no self-loops).
	for _, g := range []*graph.CSR{graph.Lollipop(12), graph.CliqueWithHair(9), graph.Cycle(9)} {
		s, err := WalkSpectrum(g)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, v := range s.Values {
			sum += v
		}
		almost(t, sum, 0, 1e-8, g.Name()+" trace")
	}
}

func TestSpectrumMatchesPowerIteration(t *testing.T) {
	// The Jacobi λ2 must agree with the power-iteration estimate through
	// the lazy transform λ̃ = (1+λ)/2.
	r := rng.New(5)
	g, err := graph.RandomRegular(48, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	s, err := WalkSpectrum(g)
	if err != nil {
		t.Fatal(err)
	}
	sp := SpectralGap(g, 50000, 1e-13)
	almost(t, (1+s.Lambda2())/2, sp.Lambda2Lazy, 1e-5, "jacobi vs power iteration")
	almost(t, s.LazyGap(), sp.Gap, 1e-5, "lazy gap agreement")
}

func TestEigentimeIdentity(t *testing.T) {
	// The eigentime identity: Σ_v π(v)·H(u,v) = Σ_{k>=2} 1/(1-λ_k),
	// independent of u. Cross-validates the Jacobi spectrum against the
	// Laplacian-pseudo-inverse hitting times.
	for _, g := range []*graph.CSR{graph.Lollipop(10), graph.Complete(8), graph.Cycle(9), graph.Star(8)} {
		s, err := WalkSpectrum(g)
		if err != nil {
			t.Fatal(err)
		}
		var eigentime float64
		for _, lam := range s.Values[1:] {
			eigentime += 1 / (1 - lam)
		}
		h, err := NewHitting(g)
		if err != nil {
			t.Fatal(err)
		}
		pi := Stationary(g)
		for _, u := range []int{0, g.N() - 1} {
			var avg float64
			for v := 0; v < g.N(); v++ {
				avg += pi[v] * h.Hit(u, v)
			}
			almost(t, avg, eigentime, 1e-6, g.Name()+" eigentime identity")
		}
	}
}

func TestLazyGapFormula(t *testing.T) {
	s := &Spectrum{Values: []float64{1, 0.5, -0.2}}
	almost(t, s.LazyGap(), 0.25, 1e-12, "lazy gap arithmetic")
}
