package bounds

import (
	"math"
	"testing"

	"dispersion/internal/core"
	"dispersion/internal/graph"
	"dispersion/internal/markov"
	"dispersion/internal/rng"
)

func TestKappaCCValue(t *testing.T) {
	// Lemma 5.1 / [11]: κ_cc ≈ 1.255.
	k := KappaCC()
	if math.Abs(k-1.255) > 0.005 {
		t.Fatalf("κ_cc = %.5f, want ≈ 1.255", k)
	}
}

func TestKappaCCBelowPiSquaredOver6(t *testing.T) {
	// Remark 5.3: the two clique constants are distinct, κ_cc < π²/6.
	if KappaCC() >= PiSquaredOver6 {
		t.Fatal("κ_cc should be strictly below π²/6")
	}
}

func TestKappaCCMatchesSimulation(t *testing.T) {
	// The defining quantity: max of n geometrics with params i/n.
	// The max of the n geometrics has constant-order fluctuations in
	// units of n (std(T/n) ≈ 1.3), so many trials are needed for a tight
	// mean; n itself converges fast (exact E[T_n]/n at n=1000 is 1.2546).
	n := 2048
	const trials = 4000
	r := rng.New(9)
	var sum float64
	for trial := 0; trial < trials; trial++ {
		var max int64
		for i := 1; i <= n; i++ {
			// Geometric number of trials (support >= 1) with success i/n.
			g := r.Geometric(float64(i)/float64(n)) + 1
			if g > max {
				max = g
			}
		}
		sum += float64(max)
	}
	got := sum / trials / float64(n)
	// Finite-n convergence of E[T_n]/n to κ_cc is slow (O(1/log n)), so
	// the tolerance is generous; the trend is checked, not the limit.
	if math.Abs(got-KappaCC()) > 0.08 {
		t.Fatalf("simulated κ_cc %.4f vs integral %.4f", got, KappaCC())
	}
}

func TestTheorem31HoldsOnFamilies(t *testing.T) {
	// The bound 6·t_hit·log2 n must exceed measured dispersion times.
	families := []*graph.CSR{
		graph.Complete(32),
		graph.Cycle(32),
		graph.Path(32),
		graph.Star(32),
		graph.Hypercube(5),
		graph.CompleteBinaryTree(5),
	}
	root := rng.New(4)
	for _, g := range families {
		h, err := markov.NewHitting(g)
		if err != nil {
			t.Fatal(err)
		}
		thit, _, _ := h.Max()
		bound := Theorem31(thit, g.N())
		for trial := 0; trial < 20; trial++ {
			var res core.Result
			if err := core.ParallelInto(g, 0, core.Options{}, rng.New(root.SplitSeed(1, uint64(trial))), nil, &res); err != nil {
				t.Fatal(err)
			}
			if float64(res.Dispersion) > bound {
				t.Errorf("%s: dispersion %d exceeded Theorem 3.1 bound %.0f",
					g.Name(), res.Dispersion, bound)
			}
		}
	}
}

func TestTreeLowerHolds(t *testing.T) {
	// t_seq(T) >= 2n-3 in expectation for trees; means over trials clear it.
	root := rng.New(5)
	for _, g := range []*graph.CSR{graph.Star(20), graph.Path(20), graph.CompleteBinaryTree(4)} {
		const trials = 300
		var sum float64
		for i := 0; i < trials; i++ {
			var res core.Result
			_ = core.SequentialInto(g, 0, core.Options{}, rng.New(root.SplitSeed(2, uint64(i))), nil, &res)
			sum += float64(res.Dispersion)
		}
		if mean := sum / trials; mean < TreeLower(g.N())*0.95 {
			t.Errorf("%s: mean t_seq %.1f below 2n-3 = %.0f", g.Name(), mean, TreeLower(g.N()))
		}
	}
}

func TestEdgeDegreeLowerHolds(t *testing.T) {
	root := rng.New(6)
	for _, g := range []*graph.CSR{graph.Complete(24), graph.Cycle(24), graph.Hypercube(4)} {
		const trials = 300
		var sum float64
		for i := 0; i < trials; i++ {
			var res core.Result
			_ = core.SequentialInto(g, 0, core.Options{}, rng.New(root.SplitSeed(3, uint64(i))), nil, &res)
			sum += float64(res.Dispersion)
		}
		bound := EdgeDegreeLower(g.M(), g.MaxDegree())
		if mean := sum / trials; mean < bound*0.95 {
			t.Errorf("%s: mean t_seq %.1f below 2|E|/Δ = %.1f", g.Name(), mean, bound)
		}
	}
}

func TestGeneralWorstHittingDominatesFamilies(t *testing.T) {
	for _, g := range []*graph.CSR{graph.Lollipop(24), graph.Path(24), graph.Complete(24)} {
		h, err := markov.NewHitting(g)
		if err != nil {
			t.Fatal(err)
		}
		thit, _, _ := h.Max()
		if thit > GeneralWorstHitting(g.N()) {
			t.Errorf("%s: t_hit %.0f exceeds Lovász ceiling %.0f",
				g.Name(), thit, GeneralWorstHitting(g.N()))
		}
	}
}

func TestRegularWorstHittingDominatesRegularFamilies(t *testing.T) {
	for _, g := range []*graph.CSR{graph.Cycle(24), graph.Complete(24), graph.Hypercube(4)} {
		h, err := markov.NewHitting(g)
		if err != nil {
			t.Fatal(err)
		}
		thit, _, _ := h.Max()
		if thit > RegularWorstHitting(g.N()) {
			t.Errorf("%s: t_hit %.0f exceeds regular ceiling %.0f",
				g.Name(), thit, RegularWorstHitting(g.N()))
		}
	}
}

func TestMixingLowerMonotone(t *testing.T) {
	if MixingLower(0.9) <= MixingLower(0.5) {
		t.Fatal("MixingLower should grow with λ2")
	}
	if !math.IsInf(MixingLower(1), 1) {
		t.Fatal("λ2 = 1 should give infinite bound")
	}
}
