package bench

import (
	"fmt"
	"math"

	"dispersion/internal/bounds"
	"dispersion/internal/graph"
	"dispersion/internal/markov"
	"dispersion/internal/rng"
	"dispersion/internal/stats"
)

func init() {
	register(Experiment{
		ID:     "E01",
		Title:  "Complete graph constants",
		Source: "Table 1 (complete graph), Theorem 5.2, Lemma 5.1",
		Claim:  "t_seq(K_n) ~ κ_cc·n ≈ 1.2550·n and t_par(K_n) ~ (π²/6)·n ≈ 1.6449·n",
		Run:    runClique,
	})
	register(Experiment{
		ID:     "E02",
		Title:  "Path dispersion and κ_p",
		Source: "Table 1 (path), Theorem 5.4",
		Claim:  "t_seq(P_n) = t_par(P_n)·(1±o(1)) = κ_p·n²·ln n with κ_p ≈ 0.6 (natural log)",
		Run:    runPath,
	})
	register(Experiment{
		ID:     "E03",
		Title:  "Cycle dispersion",
		Source: "Table 1 (cycle), Theorem 5.9",
		Claim:  "t_seq(C_n), t_par(C_n) = Θ(n² log n)",
		Run:    runCycle,
	})
	register(Experiment{
		ID:     "E04",
		Title:  "2-dimensional torus",
		Source: "Table 1 (2-dim grid), Proposition 5.10",
		Claim:  "Ω(n log n) <= t_seq, t_par <= O(n log² n)",
		Run:    runGrid2D,
	})
	register(Experiment{
		ID:     "E05",
		Title:  "3-dimensional torus",
		Source: "Table 1 (d-dim grid, d>2), Theorem 5.11",
		Claim:  "t_seq, t_par = Θ(n)",
		Run:    runGrid3D,
	})
	register(Experiment{
		ID:     "E06",
		Title:  "Hypercube",
		Source: "Table 1 (hypercube), Theorem 5.7",
		Claim:  "t_seq, t_par = Θ(n)",
		Run:    runHypercube,
	})
	register(Experiment{
		ID:     "E07",
		Title:  "Complete binary tree",
		Source: "Table 1 (binary tree), Theorem 5.14",
		Claim:  "t_seq, t_par = Θ(n log² n)",
		Run:    runBinaryTree,
	})
	register(Experiment{
		ID:     "E08",
		Title:  "Expanders",
		Source: "Table 1 (expanders), Theorem 5.5, Remark 5.6",
		Claim:  "t_seq, t_par = Θ(n) for almost-regular expanders (1-λ2 = Ω(1))",
		Run:    runExpander,
	})
	register(Experiment{
		ID:     "E09",
		Title:  "Lollipop worst case",
		Source: "Proposition 5.16, Corollary 3.2",
		Claim:  "τ_seq(lollipop) = Ω(n³ log n), matching the general O(n³ log n) ceiling",
		Run:    runLollipop,
	})
}

func runClique(cfg Config) (*Report, error) {
	kcc := bounds.KappaCC()
	tbl := &Table{Columns: []string{"n", "t_seq/n", "±", "t_par/n", "±", "κ_cc", "π²/6"}}
	sizes := []int{128, 256, 512, 1024}
	trials := cfg.scaled(300, 40)
	var lastSeq, lastPar float64
	for _, n := range sizes {
		g := graph.Complete(n)
		seq, par, err := cfg.seqPar(g, trials, 0x0101, 0x0102)
		if err != nil {
			return nil, err
		}
		lastSeq = seq.Mean / float64(n)
		lastPar = par.Mean / float64(n)
		tbl.AddRow(fmt.Sprint(n), fm(lastSeq), fm(seq.StdErr/float64(n)),
			fm(lastPar), fm(par.StdErr/float64(n)), fm(kcc), fm(bounds.PiSquaredOver6))
		cfg.printf("E01 n=%d done\n", n)
	}
	pass := within(lastSeq, kcc, 0.08) && within(lastPar, bounds.PiSquaredOver6, 0.08)
	return &Report{
		Table: tbl,
		Pass:  pass,
		Summary: fmt.Sprintf("t_seq/n -> %.4f (κ_cc=%.4f), t_par/n -> %.4f (π²/6=%.4f)",
			lastSeq, kcc, lastPar, bounds.PiSquaredOver6),
		Notes: []string{"finite-size convergence to κ_cc is O(1/log n); the trend is downward toward the constant"},
	}, nil
}

func runPath(cfg Config) (*Report, error) {
	tbl := &Table{Columns: []string{"n", "t_seq", "t_par", "par/seq", "κ_p=t_seq/(n²·ln n)"}}
	sizes := []int{48, 96, 192}
	if cfg.Scale >= 0.9 {
		sizes = []int{64, 128, 256}
	}
	trials := cfg.scaled(60, 15)
	var lastKappa float64
	var ns, ts, ratios []float64
	for _, n := range sizes {
		g := graph.Path(n)
		// Theorem 5.4's source is the endpoint (vertex 0).
		seq, par, err := cfg.seqPar(g, trials, 0x0201, 0x0202)
		if err != nil {
			return nil, err
		}
		ratios = append(ratios, par.Mean/seq.Mean)
		lastKappa = seq.Mean / (float64(n) * float64(n) * math.Log(float64(n)))
		tbl.AddRow(fmt.Sprint(n), fm(seq.Mean), fm(par.Mean), fm(ratios[len(ratios)-1]), fm(lastKappa))
		ns = append(ns, float64(n))
		ts = append(ts, seq.Mean)
		cfg.printf("E02 n=%d done\n", n)
	}
	alpha, _, r2 := stats.FitPowerLaw(ns, ts)
	lastRatio := ratios[len(ratios)-1]
	// par/seq -> 1 with an O(1/polylog) correction: require it small and
	// not growing with n.
	pass := lastRatio > 0.85 && lastRatio < 1.45 && lastRatio <= ratios[0]+0.05 &&
		lastKappa > 0.4 && lastKappa < 0.85 && alpha > 1.9 && alpha < 2.5
	return &Report{
		Table: tbl,
		Pass:  pass,
		Summary: fmt.Sprintf("κ_p ≈ %.3f (paper ≈ 0.6), par/seq %.3f and shrinking (paper: ->1), growth exponent %.2f",
			lastKappa, lastRatio, alpha),
		Notes: []string{fmt.Sprintf("power-law fit R² = %.4f; the par/seq gap closes like a polylog correction", r2)},
	}, nil
}

func runCycle(cfg Config) (*Report, error) {
	tbl := &Table{Columns: []string{"n", "t_seq", "t_par", "t_seq/(n²·log2 n)", "t_par/(n²·log2 n)"}}
	sizes := []int{48, 96, 192}
	if cfg.Scale >= 0.9 {
		sizes = []int{64, 128, 256}
	}
	trials := cfg.scaled(60, 15)
	var ns, ts []float64
	var normSeq []float64
	for _, n := range sizes {
		g := graph.Cycle(n)
		seq, par, err := cfg.seqPar(g, trials, 0x0301, 0x0302)
		if err != nil {
			return nil, err
		}
		norm := float64(n) * float64(n) * math.Log2(float64(n))
		tbl.AddRow(fmt.Sprint(n), fm(seq.Mean), fm(par.Mean), fm(seq.Mean/norm), fm(par.Mean/norm))
		ns = append(ns, float64(n))
		ts = append(ts, seq.Mean)
		normSeq = append(normSeq, seq.Mean/norm)
		cfg.printf("E03 n=%d done\n", n)
	}
	alpha, _, _ := stats.FitPowerLaw(ns, ts)
	// Θ(n² log n): exponent slightly above 2, and the normalised values
	// should be flat (within 35% of each other).
	flat := normSeq[len(normSeq)-1]/normSeq[0] > 0.65 && normSeq[len(normSeq)-1]/normSeq[0] < 1.55
	pass := alpha > 1.95 && alpha < 2.6 && flat
	return &Report{
		Table:   tbl,
		Pass:    pass,
		Summary: fmt.Sprintf("growth exponent %.2f (Θ(n² log n) ⇒ ~2.2 over this range), normalised values flat", alpha),
	}, nil
}

func runGrid2D(cfg Config) (*Report, error) {
	tbl := &Table{Columns: []string{"n", "side", "t_seq", "t_seq/(n·ln n)", "t_seq/(n·ln² n)"}}
	sides := []int{12, 16, 24}
	if cfg.Scale >= 0.9 {
		sides = []int{16, 24, 32}
	}
	trials := cfg.scaled(60, 15)
	var ns, ts []float64
	for _, s := range sides {
		n := s * s
		g := graph.Grid([]int{s, s}, true)
		seq, err := cfg.mean(g, "sequential", trials, 0x0401)
		if err != nil {
			return nil, err
		}
		ln := math.Log(float64(n))
		tbl.AddRow(fmt.Sprint(n), fmt.Sprint(s), fm(seq.Mean),
			fm(seq.Mean/(float64(n)*ln)), fm(seq.Mean/(float64(n)*ln*ln)))
		ns = append(ns, float64(n))
		ts = append(ts, seq.Mean)
		cfg.printf("E04 side=%d done\n", s)
	}
	alpha, _, _ := stats.FitPowerLaw(ns, ts)
	// Between Ω(n log n) and O(n log² n): exponent slightly above 1.
	pass := alpha > 1.0 && alpha < 1.45
	return &Report{
		Table: tbl,
		Pass:  pass,
		Summary: fmt.Sprintf("growth exponent %.2f: consistent with n·polylog(n), between the paper's Ω(n log n) and O(n log² n)",
			alpha),
		Notes: []string{"the true order on the 2d torus is the paper's Open Problem 1"},
	}, nil
}

func runGrid3D(cfg Config) (*Report, error) {
	tbl := &Table{Columns: []string{"n", "side", "t_seq", "t_par", "t_seq/n", "t_par/n"}}
	sides := []int{5, 7, 9}
	if cfg.Scale >= 0.9 {
		sides = []int{6, 8, 10}
	}
	trials := cfg.scaled(60, 15)
	var ns, ts []float64
	var norms []float64
	for _, s := range sides {
		n := s * s * s
		g := graph.Grid([]int{s, s, s}, true)
		seq, par, err := cfg.seqPar(g, trials, 0x0501, 0x0502)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(fmt.Sprint(n), fmt.Sprint(s), fm(seq.Mean), fm(par.Mean),
			fm(seq.Mean/float64(n)), fm(par.Mean/float64(n)))
		ns = append(ns, float64(n))
		ts = append(ts, seq.Mean)
		norms = append(norms, seq.Mean/float64(n))
		cfg.printf("E05 side=%d done\n", s)
	}
	alpha, _, _ := stats.FitPowerLaw(ns, ts)
	flat := norms[len(norms)-1]/norms[0] > 0.6 && norms[len(norms)-1]/norms[0] < 1.6
	pass := alpha > 0.85 && alpha < 1.25 && flat
	return &Report{
		Table:   tbl,
		Pass:    pass,
		Summary: fmt.Sprintf("growth exponent %.2f and flat t/n: Θ(n) as claimed", alpha),
	}, nil
}

func runHypercube(cfg Config) (*Report, error) {
	tbl := &Table{Columns: []string{"n", "k", "t_seq", "t_par", "t_seq/n", "t_par/n"}}
	ks := []int{7, 8, 9}
	if cfg.Scale >= 0.9 {
		ks = []int{8, 9, 10}
	}
	trials := cfg.scaled(80, 20)
	var ns, ts []float64
	var norms []float64
	for _, k := range ks {
		g := graph.Hypercube(k)
		n := g.N()
		seq, par, err := cfg.seqPar(g, trials, 0x0601, 0x0602)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(fmt.Sprint(n), fmt.Sprint(k), fm(seq.Mean), fm(par.Mean),
			fm(seq.Mean/float64(n)), fm(par.Mean/float64(n)))
		ns = append(ns, float64(n))
		ts = append(ts, seq.Mean)
		norms = append(norms, seq.Mean/float64(n))
		cfg.printf("E06 k=%d done\n", k)
	}
	alpha, _, _ := stats.FitPowerLaw(ns, ts)
	flat := norms[len(norms)-1]/norms[0] > 0.6 && norms[len(norms)-1]/norms[0] < 1.5
	pass := alpha > 0.85 && alpha < 1.2 && flat
	return &Report{
		Table:   tbl,
		Pass:    pass,
		Summary: fmt.Sprintf("growth exponent %.2f and flat t/n: Θ(n) as claimed", alpha),
	}, nil
}

func runBinaryTree(cfg Config) (*Report, error) {
	tbl := &Table{Columns: []string{"n", "levels", "t_seq", "t_par", "t_seq/(n·log2²n)", "t_seq/(n·log2 n)"}}
	levels := []int{7, 8, 9}
	if cfg.Scale >= 0.9 {
		levels = []int{8, 9, 10}
	}
	trials := cfg.scaled(60, 15)
	var perLog2, perLog1 []float64
	for _, lv := range levels {
		g := graph.CompleteBinaryTree(lv)
		n := g.N()
		seq, par, err := cfg.seqPar(g, trials, 0x0701, 0x0702)
		if err != nil {
			return nil, err
		}
		l := math.Log2(float64(n))
		perLog2 = append(perLog2, seq.Mean/(float64(n)*l*l))
		perLog1 = append(perLog1, seq.Mean/(float64(n)*l))
		tbl.AddRow(fmt.Sprint(n), fmt.Sprint(lv), fm(seq.Mean), fm(par.Mean),
			fm(perLog2[len(perLog2)-1]), fm(perLog1[len(perLog1)-1]))
		cfg.printf("E07 levels=%d done\n", lv)
	}
	// Θ(n log² n): t/(n log² n) flat while t/(n log n) keeps growing.
	flat2 := perLog2[len(perLog2)-1]/perLog2[0] > 0.7 && perLog2[len(perLog2)-1]/perLog2[0] < 1.45
	grows1 := perLog1[len(perLog1)-1] > perLog1[0]*1.05
	return &Report{
		Table: tbl,
		Pass:  flat2 && grows1,
		Summary: fmt.Sprintf("t/(n·log²n) flat (%.3f -> %.3f) while t/(n·log n) grows: Θ(n log² n)",
			perLog2[0], perLog2[len(perLog2)-1]),
	}, nil
}

func runExpander(cfg Config) (*Report, error) {
	tbl := &Table{Columns: []string{"graph", "n", "gap(1-λ2)", "t_seq", "t_par", "t_seq/n", "t_par/n"}}
	sizes := []int{128, 256, 512}
	if cfg.Scale >= 0.9 {
		sizes = []int{256, 512, 1024}
	}
	trials := cfg.scaled(80, 20)
	r := rng.New(cfg.Seed ^ 0x0801)
	var norms []float64
	minGap := math.Inf(1)
	for _, n := range sizes {
		g, err := graph.RandomRegular(n, 4, r)
		if err != nil {
			return nil, err
		}
		sp := markov.SpectralGap(g, 20000, 1e-11)
		if sp.Gap < minGap {
			minGap = sp.Gap
		}
		seq, par, err := cfg.seqPar(g, trials, 0x0802, 0x0803)
		if err != nil {
			return nil, err
		}
		norms = append(norms, seq.Mean/float64(n))
		tbl.AddRow("4-regular", fmt.Sprint(n), fm(sp.Gap), fm(seq.Mean), fm(par.Mean),
			fm(seq.Mean/float64(n)), fm(par.Mean/float64(n)))
		cfg.printf("E08 rr n=%d done\n", n)
	}
	// G(n,p) above the connectivity threshold (Remark 5.6).
	nGnp := sizes[len(sizes)-1] / 2
	p := 3 * math.Log(float64(nGnp)) / float64(nGnp)
	gnp, err := graph.GNP(nGnp, p, r)
	if err != nil {
		return nil, err
	}
	sp := markov.SpectralGap(gnp, 20000, 1e-11)
	seq, par, err := cfg.seqPar(gnp, trials, 0x0804, 0x0805)
	if err != nil {
		return nil, err
	}
	tbl.AddRow(fmt.Sprintf("G(n,%.3f)", p), fmt.Sprint(nGnp), fm(sp.Gap), fm(seq.Mean), fm(par.Mean),
		fm(seq.Mean/float64(nGnp)), fm(par.Mean/float64(nGnp)))
	flat := norms[len(norms)-1]/norms[0] > 0.6 && norms[len(norms)-1]/norms[0] < 1.6
	pass := minGap > 0.05 && flat
	return &Report{
		Table:   tbl,
		Pass:    pass,
		Summary: fmt.Sprintf("spectral gap bounded below (min %.3f) and t/n flat: Θ(n) as claimed", minGap),
	}, nil
}

func runLollipop(cfg Config) (*Report, error) {
	tbl := &Table{Columns: []string{"n", "t_seq", "t_seq/n³", "t_seq/(n³·log2 n)"}}
	sizes := []int{16, 24, 32}
	if cfg.Scale >= 0.9 {
		sizes = []int{16, 24, 32, 48}
	}
	trials := cfg.scaled(40, 10)
	var ns, ts []float64
	for _, n := range sizes {
		g := graph.Lollipop(n)
		seq, err := cfg.mean(g, "sequential", trials, 0x0901)
		if err != nil {
			return nil, err
		}
		n3 := float64(n) * float64(n) * float64(n)
		tbl.AddRow(fmt.Sprint(n), fm(seq.Mean), fm(seq.Mean/n3), fm(seq.Mean/(n3*math.Log2(float64(n)))))
		ns = append(ns, float64(n))
		ts = append(ts, seq.Mean)
		cfg.printf("E09 n=%d done\n", n)
	}
	alpha, _, _ := stats.FitPowerLaw(ns, ts)
	pass := alpha > 2.5 && alpha < 3.8
	return &Report{
		Table: tbl,
		Pass:  pass,
		Summary: fmt.Sprintf("growth exponent %.2f: super-quadratic, consistent with the Θ(n³ log n) worst case",
			alpha),
		Notes: []string{"sizes are small because a single trial costs Θ(n⁴) steps; the exponent is the checkable shape"},
	}, nil
}
