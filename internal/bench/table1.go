package bench

import (
	"fmt"
	"io"

	"dispersion/internal/graph"
	"dispersion/internal/markov"
	"dispersion/internal/rng"
)

// Table1Row is one graph family of the paper's Table 1 with measured
// quantities alongside the paper's asymptotic claims.
type Table1Row struct {
	Family     string
	N          int
	Cover      float64 // simulated E[t_cov] from vertex 0
	Hit        float64 // exact max pairwise hitting time
	Mix        int     // lazy TV mixing time (eps = 1/4)
	Tseq       float64 // simulated worst-origin E[τ_seq] (origin 0 heuristic)
	Tpar       float64
	PaperCover string
	PaperHit   string
	PaperMix   string
	PaperDisp  string
}

// Table1 computes the measured analogue of the paper's Table 1 on moderate
// instances of every family. Sizes are chosen so the dense hitting-time
// solve and the Θ(n² log n) simulations stay in seconds at scale 1.
func Table1(cfg Config) ([]Table1Row, error) {
	trials := cfg.scaled(120, 25)
	coverTrials := cfg.scaled(200, 40)
	type fam struct {
		g          *graph.CSR
		mixCap     int
		pc, ph, pm string
		pd         string
	}
	expander, err := graph.RandomRegular(128, 4, rng.New(cfg.Seed^0x7a61))
	if err != nil {
		return nil, err
	}
	fams := []fam{
		{graph.Path(64), 1 << 18, "n²", "n²", "O(n²)", "κ_p·n² log n"},
		{graph.Cycle(64), 1 << 18, "n²/2", "n²/2", "O(n²)", "Θ(n² log n)"},
		{graph.Grid([]int{12, 12}, true), 1 << 16, "Θ(n log² n)", "Θ(n log n)", "Θ(n)", "Ω(n log n), O(n log² n)"},
		{graph.Grid([]int{5, 5, 5}, true), 1 << 14, "Θ(n log n)", "Θ(n)", "Θ(n^(2/3))", "Θ(n)"},
		{graph.Hypercube(7), 1 << 12, "Θ(n log n)", "Θ(n)", "log n·log log n", "Θ(n)"},
		{graph.CompleteBinaryTree(6), 1 << 16, "Θ(n log n)", "Θ(n log n)", "n", "Θ(n log² n)"},
		{graph.Complete(128), 64, "Θ(n log n)", "Θ(n)", "1", "κ_cc·n / (π²/6)·n"},
		{expander, 1 << 12, "Θ(n log n)", "Θ(n)", "O(log n)", "Θ(n)"},
	}
	rows := make([]Table1Row, 0, len(fams))
	for fi, f := range fams {
		h, err := markov.NewHitting(f.g)
		if err != nil {
			return nil, err
		}
		thit, _, _ := h.Max()
		mix := markov.MixingTime(f.g, f.mixCap)
		cover := SampleCoverTime(f.g, 0, coverTrials, cfg.Seed, uint64(0x2000+fi*8))
		seq, par, err := cfg.seqPar(f.g, trials, uint64(0x2001+fi*8), uint64(0x2002+fi*8))
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table1Row{
			Family: f.g.Name(), N: f.g.N(),
			Cover: cover.Mean, Hit: thit, Mix: mix,
			Tseq: seq.Mean, Tpar: par.Mean,
			PaperCover: f.pc, PaperHit: f.ph, PaperMix: f.pm, PaperDisp: f.pd,
		})
		cfg.printf("table1: %s done\n", f.g.Name())
	}
	return rows, nil
}

// RenderTable1 writes the measured Table 1 alongside the paper's claims.
func RenderTable1(rows []Table1Row, w io.Writer) {
	tbl := &Table{Columns: []string{
		"family", "n", "t_cov(sim)", "t_hit(exact)", "t_mix(TV)", "t_seq(sim)", "t_par(sim)", "paper dispersion"}}
	for _, r := range rows {
		tbl.AddRow(r.Family, fmt.Sprint(r.N), fm(r.Cover), fm(r.Hit), fmt.Sprint(r.Mix),
			fm(r.Tseq), fm(r.Tpar), r.PaperDisp)
	}
	tbl.Render(w)
}
