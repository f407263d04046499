// Command benchlab is the repository's benchmark laboratory: it runs the
// declarative benchmark suites committed in benchsuites.json (graph
// family × process × options grids — see internal/benchsuite for the
// schema) with repeated timed samples per configuration, reports
// benchstat-style summaries (median and mean with confidence intervals
// for ns/op, trials/sec and allocs/op), appends each run to the
// append-only perf-trajectory file, and — as a gate — compares two runs
// with a statistical test so CI fails only on significant regressions,
// never on noise.
//
// Measure:
//
//	benchlab [-suites benchsuites.json] [-quick] [-run REGEX] \
//	         [-out BENCH_lab.json] [-trajectory BENCH_trajectory.jsonl]
//
// Each configuration runs warmup samples (discarded), then N timed
// samples of a fixed trial count through the public dispersion engine;
// identical seeds mean every sample times identical work, so the spread
// across samples is pure machine noise. -quick swaps in each suite's
// reduced iteration budget for fast CI runs. -list prints the expanded
// configurations without running them.
//
// Gate:
//
//	benchlab -gate OLD.json NEW.json [-alpha 0.05] [-threshold 0.05]
//
// A configuration fails the gate only if the slowdown is statistically
// significant (one-sided Mann-Whitney p < alpha on the raw ns/op
// samples) AND material (median slowdown beyond the threshold), or if
// its allocation count genuinely grew. Benchmarks present in only one
// report are noted and never fail the gate. Exit status 1 means at least
// one real regression.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"regexp"

	"dispersion/internal/benchsuite"
)

func main() {
	var (
		suitesPath = flag.String("suites", "benchsuites.json", "declarative suites file to run")
		quick      = flag.Bool("quick", false, "use each suite's reduced quick iteration budget (CI mode)")
		runFilter  = flag.String("run", "", "only run configurations whose name matches this regexp")
		outPath    = flag.String("out", "", "write the full JSON report to this file")
		trajectory = flag.String("trajectory", "", "append this run's summary line to this JSONL trajectory file")
		list       = flag.Bool("list", false, "print the expanded configurations and exit")
		gate       = flag.Bool("gate", false, "compare two reports: benchlab -gate OLD.json NEW.json")
		alpha      = flag.Float64("alpha", 0.05, "gate significance level for the Mann-Whitney test")
		threshold  = flag.Float64("threshold", 0.05, "gate threshold: minimum material median slowdown (0.05 = 5%)")
	)
	flag.Parse()
	if err := run(*suitesPath, *quick, *runFilter, *outPath, *trajectory, *list,
		*gate, *alpha, *threshold, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchlab:", err)
		os.Exit(1)
	}
}

// errGateFailed signals a regression verdict (exit 1) distinctly from
// operational errors.
var errGateFailed = fmt.Errorf("gate failed")

// run dispatches the three modes: gate, list, measure.
func run(suitesPath string, quick bool, runFilter, outPath, trajectory string,
	list, gate bool, alpha, threshold float64, args []string) error {
	if gate {
		if len(args) != 2 {
			return fmt.Errorf("usage: benchlab -gate OLD.json NEW.json")
		}
		if !(alpha > 0 && alpha < 1) || threshold < 0 {
			return fmt.Errorf("gate wants 0 < alpha < 1 and threshold >= 0")
		}
		n, err := runGate(os.Stdout, args[0], args[1], gateOptions{alpha: alpha, threshold: threshold})
		if err != nil {
			return err
		}
		if n > 0 {
			return errGateFailed
		}
		return nil
	}
	if len(args) != 0 {
		return fmt.Errorf("unexpected arguments %v (did you mean -gate OLD NEW?)", args)
	}
	suites, err := benchsuite.Load(suitesPath)
	if err != nil {
		return err
	}
	cfgs := suites.Configs(quick)
	var filter *regexp.Regexp
	if runFilter != "" {
		filter, err = regexp.Compile(runFilter)
		if err != nil {
			return err
		}
	}
	if list {
		for _, c := range cfgs {
			if filter != nil && !filter.MatchString(c.Name) {
				continue
			}
			fmt.Printf("%-52s samples=%d iterations=%d warmup=%d workers=%d seed=%d\n",
				c.Name, c.Samples, c.Iterations, c.Warmup, c.Workers, c.Seed)
		}
		return nil
	}
	rep, err := runLab(context.Background(), cfgs, quick, filter, os.Stdout)
	if err != nil {
		return err
	}
	if outPath != "" {
		if err := writeReport(outPath, rep); err != nil {
			return err
		}
	}
	if trajectory != "" {
		if err := appendTrajectory(trajectory, rep); err != nil {
			return err
		}
	}
	return nil
}
