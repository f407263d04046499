package bench

import (
	"fmt"

	"dispersion"
	"dispersion/internal/graph"
	"dispersion/internal/markov"
	"dispersion/internal/rng"
	"dispersion/internal/stats"
)

func init() {
	register(Experiment{
		ID:     "E20",
		Title:  "Half-settlement within O(t_mix)",
		Source: "Theorem 3.3 (consequence for k = log2 n - 1)",
		Claim:  "in the lazy Parallel-IDLA at least n/2 particles settle within O(t_mix) rounds",
		Run:    runHalfSettlement,
	})
	register(Experiment{
		ID:     "E21",
		Title:  "Mixing-time lower bound",
		Source: "Proposition 3.9",
		Claim:  "t_seq(G) = Ω(t_mix) for lazy walks; the cycle shows the bound is tight up to log n",
		Run:    runMixingLower,
	})
}

func runHalfSettlement(cfg Config) (*Report, error) {
	tbl := &Table{Columns: []string{"graph", "t_mix(TV)", "E[half-settle round]", "ratio/t_mix"}}
	trials := cfg.scaled(150, 40)
	expander, err := graph.RandomRegular(256, 4, rng.New(cfg.Seed^0x2001))
	if err != nil {
		return nil, err
	}
	type fam struct {
		g      *graph.CSR
		mixCap int
	}
	fams := []fam{
		{graph.Hypercube(7), 1 << 12},
		{expander, 1 << 12},
		{graph.Cycle(64), 1 << 18},
		{graph.Grid([]int{10, 10}, true), 1 << 16},
	}
	pass := true
	var worstRatio float64
	for fi, f := range fams {
		tmix := markov.MixingTime(f.g, f.mixCap)
		n := f.g.N()
		var halves []float64
		err := cfg.each(f.g, "parallel", trials, uint64(0x2010+fi), func(res *dispersion.Result) error {
			halves = append(halves, float64(res.PhaseClock(n, n/2)))
			return nil
		}, dispersion.WithLazy())
		if err != nil {
			return nil, err
		}
		s := stats.Summarize(halves)
		ratio := s.Mean / float64(tmix)
		if ratio > worstRatio {
			worstRatio = ratio
		}
		tbl.AddRow(f.g.Name(), fmt.Sprint(tmix), fm(s.Mean), fm(ratio))
		// "O(t_mix)" with the theorem's constant 60; empirically the
		// constant is far smaller — require a generous 8.
		if ratio > 8 {
			pass = false
		}
		cfg.printf("E20 %s done\n", f.g.Name())
	}
	return &Report{
		Table: tbl,
		Pass:  pass,
		Summary: fmt.Sprintf("half the particles settle within %.1f·t_mix on every family (theorem constant: 60)",
			worstRatio),
	}, nil
}

func runMixingLower(cfg Config) (*Report, error) {
	tbl := &Table{Columns: []string{"n", "t_mix(TV,lazy)", "E[τ_seq] (lazy)", "τ_seq/t_mix"}}
	trials := cfg.scaled(50, 15)
	sizes := []int{32, 64, 128}
	pass := true
	var ratios []float64
	for _, n := range sizes {
		g := graph.Cycle(n)
		tmix := markov.MixingTime(g, 1<<20)
		seq, err := cfg.mean(g, "sequential", trials, uint64(0x2101+n), dispersion.WithLazy())
		if err != nil {
			return nil, err
		}
		ratio := seq.Mean / float64(tmix)
		ratios = append(ratios, ratio)
		tbl.AddRow(fmt.Sprint(n), fmt.Sprint(tmix), fm(seq.Mean), fm(ratio))
		if ratio < 1 {
			pass = false // dispersion must exceed mixing on the cycle
		}
		cfg.printf("E21 n=%d done\n", n)
	}
	// The gap should be Θ(log n): growing but sublinear in n.
	if ratios[len(ratios)-1] < ratios[0] {
		pass = false
	}
	return &Report{
		Table: tbl,
		Pass:  pass,
		Summary: fmt.Sprintf("τ_seq/t_mix grows from %.1f to %.1f: Ω(t_mix) holds and the log n gap is visible",
			ratios[0], ratios[len(ratios)-1]),
	}, nil
}
