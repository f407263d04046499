package exact

import (
	"math"
	"testing"

	"dispersion/internal/core"
	"dispersion/internal/graph"
	"dispersion/internal/rng"
)

func TestParallelCDFBasics(t *testing.T) {
	g := graph.Cycle(5)
	e, err := NewParallel(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	cdf := e.DispersionCDF(300)
	if cdf[0] != 0 {
		t.Fatalf("P(τ_par = 0) = %g on n > 1", cdf[0])
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i] < cdf[i-1]-1e-12 {
			t.Fatalf("CDF decreases at %d", i)
		}
	}
	if cdf[len(cdf)-1] < 0.9999 {
		t.Fatalf("CDF tail %.6f", cdf[len(cdf)-1])
	}
}

func TestParallelSingletonGraph(t *testing.T) {
	g := graph.Path(1)
	e, err := NewParallel(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	cdf := e.DispersionCDF(5)
	for _, v := range cdf {
		if v != 1 {
			t.Fatal("single-vertex process should finish at time 0")
		}
	}
}

func TestParallelMatchesSimulation(t *testing.T) {
	for _, g := range []*graph.CSR{graph.Complete(5), graph.Cycle(5), graph.Star(5), graph.Path(4)} {
		e, err := NewParallel(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, tail := e.ExpectedDispersion(600)
		if tail > 1e-8 {
			t.Fatalf("%s: horizon too short", g.Name())
		}
		const trials = 8000
		root := rng.New(23)
		var sum float64
		for i := 0; i < trials; i++ {
			var res core.Result
			if err := core.ParallelInto(g, 0, core.Options{}, rng.New(root.SplitSeed(5, uint64(i))), nil, &res); err != nil {
				t.Fatal(err)
			}
			sum += float64(res.Dispersion)
		}
		mean := sum / trials
		if math.Abs(mean-want) > 0.06*want+0.3 {
			t.Errorf("%s: simulated E[τ_par] %.3f vs exact %.3f", g.Name(), mean, want)
		}
	}
}

func TestTheorem41ExactDomination(t *testing.T) {
	// Exact verification of Theorem 4.1 at small n: the parallel CDF sits
	// below the sequential CDF pointwise (τ_seq ⪯ τ_par), with no
	// Monte-Carlo error at all.
	for _, g := range []*graph.CSR{
		graph.Complete(5), graph.Cycle(5), graph.Star(6), graph.Path(4), graph.CompleteBinaryTree(2),
	} {
		seq, err := NewSequential(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		par, err := NewParallel(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		T := 500
		sc := seq.DispersionCDF(T)
		pc := par.DispersionCDF(T)
		for i := 0; i <= T; i++ {
			if pc[i] > sc[i]+1e-9 {
				t.Errorf("%s: P(τ_par<=%d)=%.6f exceeds P(τ_seq<=%d)=%.6f — domination violated",
					g.Name(), i, pc[i], i, sc[i])
				break
			}
		}
		// Strict inequality somewhere, except in degenerate tiny cases
		// (on the 3-vertex tree the two laws coincide exactly).
		if g.N() >= 5 {
			strict := false
			for i := 0; i <= T; i++ {
				if sc[i] > pc[i]+1e-9 {
					strict = true
					break
				}
			}
			if !strict {
				t.Errorf("%s: sequential and parallel CDFs identical — unexpected", g.Name())
			}
		}
	}
}

func TestExactCliqueGapMatchesTheorem52Direction(t *testing.T) {
	// Already at n=6 the parallel mean should exceed the sequential mean
	// by a visible margin (the κ_cc vs π²/6 gap in the limit).
	g := graph.Complete(6)
	seq, _ := NewSequential(g, 0)
	par, _ := NewParallel(g, 0)
	sm, st := seq.ExpectedDispersion(800)
	pm, pt := par.ExpectedDispersion(800)
	if st > 1e-9 || pt > 1e-9 {
		t.Fatal("horizon too short")
	}
	if pm <= sm*1.05 {
		t.Errorf("exact E[τ_par]=%.4f not clearly above E[τ_seq]=%.4f", pm, sm)
	}
}

func TestNewParallelValidation(t *testing.T) {
	if _, err := NewParallel(graph.Complete(9), 0); err == nil {
		t.Error("oversized graph accepted")
	}
	if _, err := NewParallel(graph.Path(4), -1); err == nil {
		t.Error("bad origin accepted")
	}
}
