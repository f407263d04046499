// Command experiments runs the full reproduction suite: one experiment per
// table row / quantitative claim of the paper (E01–E24, each printed with
// its source and claim), printing measured-vs-paper comparison tables and
// a PASS/CHECK verdict for each. With -csvdir, every experiment's
// comparison table is also written as <dir>/<ID>.csv for downstream
// plotting.
//
// Usage:
//
//	experiments                  # full suite at scale 1.0 (minutes)
//	experiments -scale 0.25      # quick pass
//	experiments -only E01,E13    # selected experiments
//	experiments -csvdir out/     # also write per-experiment CSV tables
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dispersion/experiments"
)

func main() {
	var (
		seed    = flag.Uint64("seed", 1, "random seed")
		scale   = flag.Float64("scale", 1.0, "work scale in (0,1]")
		only    = flag.String("only", "", "comma-separated experiment IDs (default: all)")
		csvDir  = flag.String("csvdir", "", "write each experiment's table as <dir>/<ID>.csv")
		verbose = flag.Bool("v", false, "progress output")
	)
	flag.Parse()

	cfg := experiments.Config{Seed: *seed, Scale: *scale}
	if *verbose {
		cfg.Out = os.Stderr
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(2)
		}
	}

	// The plain full-suite path keeps RunAll's aggregated report; any
	// selection or CSV export runs the experiments individually.
	if *only == "" && *csvDir == "" {
		failed := experiments.RunAll(cfg, os.Stdout)
		if failed > 0 {
			fmt.Fprintf(os.Stderr, "\n%d experiment(s) flagged CHECK\n", failed)
			os.Exit(1)
		}
		return
	}

	var selected []experiments.Experiment
	if *only == "" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			e, ok := experiments.Get(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	exitCode := 0
	for _, e := range selected {
		fmt.Printf("\n=== %s: %s ===\n", e.ID, e.Title)
		fmt.Printf("source: %s\nclaim:  %s\n\n", e.Source, e.Claim)
		rep, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ERROR: %v\n", err)
			exitCode = 1
			continue
		}
		if rep.Table != nil {
			rep.Table.Render(os.Stdout)
			if *csvDir != "" {
				if err := writeCSV(filepath.Join(*csvDir, e.ID+".csv"), rep.Table); err != nil {
					fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
					exitCode = 1
				}
			}
		}
		for _, n := range rep.Notes {
			fmt.Printf("  note: %s\n", n)
		}
		verdict := "PASS"
		if !rep.Pass {
			verdict = "CHECK"
			exitCode = 1
		}
		fmt.Printf("  %s: %s\n", verdict, rep.Summary)
	}
	os.Exit(exitCode)
}

// writeCSV persists one experiment's comparison table.
func writeCSV(path string, t *experiments.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
