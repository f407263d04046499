package exact

import (
	"math"
	"testing"

	"dispersion/internal/core"
	"dispersion/internal/graph"
	"dispersion/internal/rng"
	"dispersion/internal/stats"
)

func TestHarmonicMeasureSumsToOne(t *testing.T) {
	g := graph.Cycle(8)
	e, err := NewSequential(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []uint32{1, 0b111, 0b10101} {
		hm := e.HarmonicMeasure(s)
		var sum float64
		for v, p := range hm {
			if s&(1<<uint(v)) != 0 && p != 0 {
				t.Fatalf("mass on occupied vertex %d", v)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-10 {
			t.Fatalf("harmonic measure sums to %.6f for set %b", sum, s)
		}
	}
}

func TestHarmonicMeasureSymmetricOnCycle(t *testing.T) {
	// With only the origin occupied on a cycle, the two neighbours each
	// receive probability 1/2.
	g := graph.Cycle(6)
	e, _ := NewSequential(g, 0)
	hm := e.HarmonicMeasure(1)
	if math.Abs(hm[1]-0.5) > 1e-12 || math.Abs(hm[5]-0.5) > 1e-12 {
		t.Fatalf("cycle harmonic measure %v", hm)
	}
}

func TestHarmonicMeasureGamblersRuin(t *testing.T) {
	// Path 0-1-2-3 with {1} occupied... origin must be in the set; take
	// origin 1, occupied {1,2}: the walk from 1 exits at 0 or 3. By
	// gambler's ruin from the middle of a length-3 segment: P(0) = 2/3.
	g := graph.Path(4)
	e, _ := NewSequential(g, 1)
	hm := e.HarmonicMeasure(0b0110)
	if math.Abs(hm[0]-2.0/3.0) > 1e-10 || math.Abs(hm[3]-1.0/3.0) > 1e-10 {
		t.Fatalf("gambler's ruin measure %v, want [2/3, 0, 0, 1/3]", hm)
	}
}

func TestMeanAbsorptionSingleOccupied(t *testing.T) {
	// Only the origin occupied: absorption takes exactly 1 step.
	g := graph.Complete(6)
	e, _ := NewSequential(g, 0)
	if got := e.MeanAbsorptionTime(1); math.Abs(got-1) > 1e-12 {
		t.Fatalf("single-vertex absorption %.6f, want 1", got)
	}
}

func TestMeanAbsorptionCliqueFormula(t *testing.T) {
	// On K_n with k occupied (origin among them), each step escapes with
	// probability (n-k)/(n-1): geometric with mean (n-1)/(n-k).
	n := 8
	g := graph.Complete(n)
	e, _ := NewSequential(g, 0)
	for _, k := range []int{1, 3, 5, 7} {
		s := uint32(1<<uint(k)) - 1 // vertices 0..k-1 occupied
		want := float64(n-1) / float64(n-k)
		if got := e.MeanAbsorptionTime(s); math.Abs(got-want) > 1e-10 {
			t.Fatalf("K_%d with %d occupied: %.6f, want %.6f", n, k, got, want)
		}
	}
}

func TestExpectedTotalStepsCliqueCouponCollector(t *testing.T) {
	// Summing the geometric means over k = 1..n-1 on K_n gives
	// (n-1)·H_{n-1}: the coupon collector total.
	n := 8
	g := graph.Complete(n)
	e, _ := NewSequential(g, 0)
	var want float64
	for k := 1; k <= n-1; k++ {
		want += float64(n-1) / float64(k)
	}
	got := e.ExpectedTotalSteps()
	if math.Abs(got-want) > 1e-8 {
		t.Fatalf("K_%d exact total steps %.6f, want %.6f", n, got, want)
	}
}

func TestExpectedTotalStepsMatchesSimulation(t *testing.T) {
	for _, g := range []*graph.CSR{graph.Cycle(7), graph.Path(7), graph.Star(7), graph.CompleteBinaryTree(3)} {
		e, err := NewSequential(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := e.ExpectedTotalSteps()
		const trials = 6000
		root := rng.New(11)
		var sum float64
		for i := 0; i < trials; i++ {
			var res core.Result
			if err := core.SequentialInto(g, 0, core.Options{}, rng.New(root.SplitSeed(1, uint64(i))), nil, &res); err != nil {
				t.Fatal(err)
			}
			sum += float64(res.TotalSteps)
		}
		mean := sum / trials
		if math.Abs(mean-want) > 0.05*want+0.5 {
			t.Errorf("%s: simulated total steps %.2f vs exact %.2f", g.Name(), mean, want)
		}
	}
}

func TestTotalStepsParallelMatchesExact(t *testing.T) {
	// Theorem 4.1: the parallel total steps have the same law, hence the
	// same exact mean.
	g := graph.Star(6)
	e, _ := NewSequential(g, 0)
	want := e.ExpectedTotalSteps()
	const trials = 8000
	root := rng.New(13)
	var sum float64
	for i := 0; i < trials; i++ {
		var res core.Result
		if err := core.ParallelInto(g, 0, core.Options{}, rng.New(root.SplitSeed(2, uint64(i))), nil, &res); err != nil {
			t.Fatal(err)
		}
		sum += float64(res.TotalSteps)
	}
	mean := sum / trials
	if math.Abs(mean-want) > 0.05*want+0.5 {
		t.Errorf("parallel total steps %.2f vs exact sequential %.2f", mean, want)
	}
}

func TestDispersionCDFMonotoneAndComplete(t *testing.T) {
	g := graph.Cycle(6)
	e, _ := NewSequential(g, 0)
	cdf := e.DispersionCDF(400)
	for t1 := 1; t1 < len(cdf); t1++ {
		if cdf[t1] < cdf[t1-1]-1e-12 {
			t.Fatalf("CDF decreases at %d", t1)
		}
	}
	if cdf[len(cdf)-1] < 0.999 {
		t.Fatalf("CDF tail %.6f, want ≈ 1", cdf[len(cdf)-1])
	}
	// τ_seq >= 1 always (some particle must take a step when n > 1).
	if cdf[0] != 0 {
		t.Fatalf("P(τ=0) = %.4f, want 0", cdf[0])
	}
}

func TestExpectedDispersionMatchesSimulation(t *testing.T) {
	for _, tc := range []struct {
		g *graph.CSR
		T int
	}{
		{graph.Complete(6), 300},
		{graph.Cycle(6), 600},
		{graph.Star(6), 300},
		{graph.Path(5), 600},
	} {
		e, err := NewSequential(tc.g, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, tail := e.ExpectedDispersion(tc.T)
		if tail > 1e-6 {
			t.Fatalf("%s: horizon too short, tail %.2g", tc.g.Name(), tail)
		}
		const trials = 8000
		root := rng.New(17)
		var sum float64
		for i := 0; i < trials; i++ {
			var res core.Result
			if err := core.SequentialInto(tc.g, 0, core.Options{}, rng.New(root.SplitSeed(3, uint64(i))), nil, &res); err != nil {
				t.Fatal(err)
			}
			sum += float64(res.Dispersion)
		}
		mean := sum / trials
		if math.Abs(mean-want) > 0.06*want+0.3 {
			t.Errorf("%s: simulated E[τ_seq] %.3f vs exact %.3f", tc.g.Name(), mean, want)
		}
	}
}

func TestDispersionCDFMatchesEmpirical(t *testing.T) {
	// Full-distribution check, not just the mean: the empirical CDF of
	// simulated dispersion times must track the exact CDF pointwise.
	g := graph.Complete(5)
	e, _ := NewSequential(g, 0)
	T := 200
	cdf := e.DispersionCDF(T)
	const trials = 6000
	root := rng.New(19)
	xs := make([]float64, trials)
	for i := range xs {
		var res core.Result
		if err := core.SequentialInto(g, 0, core.Options{}, rng.New(root.SplitSeed(4, uint64(i))), nil, &res); err != nil {
			t.Fatal(err)
		}
		xs[i] = float64(res.Dispersion)
	}
	emp := stats.NewECDF(xs)
	for _, q := range []int{2, 4, 8, 16, 32} {
		got := emp.At(float64(q))
		want := cdf[q]
		if math.Abs(got-want) > 0.03 {
			t.Errorf("P(τ<=%d): empirical %.4f vs exact %.4f", q, got, want)
		}
	}
}

func TestSequentialKappaTrendAtTinyN(t *testing.T) {
	// Exact E[τ_seq(K_n)]/n at small n sits below κ_cc and climbs toward
	// it (the limit is approached from below for the exact values).
	var prev float64
	for _, n := range []int{4, 6, 8} {
		e, _ := NewSequential(graph.Complete(n), 0)
		mean, tail := e.ExpectedDispersion(600)
		if tail > 1e-9 {
			t.Fatal("horizon too short")
		}
		ratio := mean / float64(n)
		if ratio < prev {
			t.Errorf("E[τ_seq(K_%d)]/n = %.4f decreased from %.4f", n, ratio, prev)
		}
		prev = ratio
	}
	if prev > 1.2552 {
		t.Errorf("exact clique ratio %.4f already above κ_cc at n=8", prev)
	}
}

func TestNewSequentialValidation(t *testing.T) {
	if _, err := NewSequential(graph.Complete(25), 0); err == nil {
		t.Error("oversized graph accepted")
	}
	if _, err := NewSequential(graph.Path(4), 9); err == nil {
		t.Error("bad origin accepted")
	}
	b := graph.NewBuilder("disc", 4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g, _ := b.Build()
	if _, err := NewSequential(g, 0); err == nil {
		t.Error("disconnected graph accepted")
	}
}
