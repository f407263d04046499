package bench

import (
	"fmt"

	"dispersion"
	"dispersion/internal/graph"
)

func init() {
	register(Experiment{
		ID:     "E22",
		Title:  "Particle-count and origin variants",
		Source: "Section 6.2 (further directions)",
		Claim:  "dispersion grows with the particle count (conjecturally maximal at k=n) and shrinks with uniformly random origins",
		Run:    runVariants,
	})
	register(Experiment{
		ID:     "E23",
		Title:  "Conjecture 6.1 and Open Problem 2",
		Source: "Conjecture 6.1, Open Problem 2",
		Claim:  "t_par <= t_seq + t_cov (conjectured), and t_par/t_seq stays bounded by a constant across families",
		Run:    runConjectures,
	})
}

func runVariants(cfg Config) (*Report, error) {
	trials := cfg.scaled(200, 50)
	tbl := &Table{Columns: []string{"graph", "variant", "E[τ_par]", "±"}}
	pass := true
	for gi, g := range []*graph.CSR{graph.Complete(96), graph.Hypercube(6)} {
		n := g.N()
		var byK []float64
		var lastErr float64
		for ki, k := range []int{n / 4, n / 2, n} {
			s, err := cfg.mean(g, "parallel", trials, uint64(0x2200+gi*16+ki), dispersion.WithParticles(k))
			if err != nil {
				return nil, err
			}
			byK = append(byK, s.Mean)
			lastErr = s.StdErr
			tbl.AddRow(g.Name(), fmt.Sprintf("k=%d", k), fm(s.Mean), fm(s.StdErr))
		}
		// Growth in k (the conjectured maximum at k=n).
		for i := 1; i < len(byK); i++ {
			if byK[i] < byK[i-1]*0.9 {
				pass = false
			}
		}
		rnd, err := cfg.mean(g, "parallel", trials, uint64(0x2280+gi), dispersion.WithRandomOrigins())
		if err != nil {
			return nil, err
		}
		tbl.AddRow(g.Name(), "random origins", fm(rnd.Mean), fm(rnd.StdErr))
		// Spreading origins must not be slower than the common origin.
		// On the complete graph the two are equal in distribution up to
		// the instant settlements (every vertex is one hop from
		// everywhere), so allow Monte-Carlo noise.
		if rnd.Mean > byK[len(byK)-1]+3*(rnd.StdErr+lastErr) {
			pass = false
		}
		cfg.printf("E22 %s done\n", g.Name())
	}
	return &Report{
		Table:   tbl,
		Pass:    pass,
		Summary: "dispersion increases with particle count; random origins never slower (and faster where geometry matters)",
	}, nil
}

func runConjectures(cfg Config) (*Report, error) {
	trials := cfg.scaled(150, 40)
	coverTrials := cfg.scaled(150, 40)
	tbl := &Table{Columns: []string{"graph", "t_seq", "t_par", "t_cov", "t_par - t_seq", "t_par/t_seq"}}
	graphs := []*graph.CSR{
		graph.Complete(96), graph.Cycle(48), graph.Star(64),
		graph.Hypercube(6), graph.CompleteBinaryTree(5), graph.Lollipop(24),
		graph.CliqueWithHair(48),
	}
	pass := true
	maxRatio := 0.0
	for gi, g := range graphs {
		base := uint64(0x2300 + gi*8)
		seq, par, err := cfg.seqPar(g, trials, base, base+1)
		if err != nil {
			return nil, err
		}
		cov := SampleCoverTime(g, 0, coverTrials, cfg.Seed, base+2)
		gap := par.Mean - seq.Mean
		ratio := par.Mean / seq.Mean
		if ratio > maxRatio {
			maxRatio = ratio
		}
		tbl.AddRow(g.Name(), fm(seq.Mean), fm(par.Mean), fm(cov.Mean), fm(gap), fm(ratio))
		// Conjecture 6.1 in expectation, with Monte-Carlo slack.
		noise := 3 * (par.StdErr + seq.StdErr + cov.StdErr)
		if gap > cov.Mean+noise {
			pass = false
		}
		cfg.printf("E23 %s done\n", g.Name())
	}
	// Open Problem 2: is t_par = O(t_seq)? The clique gives ~1.31; no
	// family here should stray far above that.
	if maxRatio > 2 {
		pass = false
	}
	return &Report{
		Table: tbl,
		Pass:  pass,
		Summary: fmt.Sprintf("t_par - t_seq <= t_cov on every family (Conjecture 6.1); max t_par/t_seq = %.2f (Open Problem 2)",
			maxRatio),
		Notes: []string{"both statements are open in the paper; these are empirical checks, not proofs"},
	}, nil
}
