package main

import (
	"context"
	"fmt"
	"io"
	"regexp"
	"runtime"
	"time"

	"dispersion"
	"dispersion/graphspec"
	"dispersion/internal/benchsuite"
)

// runLab measures every configuration and assembles the run's Report,
// streaming one table row per configuration to w as results land. filter
// (optional) restricts the run to configuration names it matches.
func runLab(ctx context.Context, cfgs []benchsuite.Config, quick bool, filter *regexp.Regexp, w io.Writer) (*Report, error) {
	rep := newReport(quick)
	printHeader(w)
	for _, cfg := range cfgs {
		if filter != nil && !filter.MatchString(cfg.Name) {
			continue
		}
		res, err := measureConfig(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.Name, err)
		}
		rep.Configs = append(rep.Configs, res)
		printResult(w, res)
	}
	if len(rep.Configs) == 0 {
		return nil, fmt.Errorf("no configuration matched")
	}
	return rep, nil
}

// measureConfig runs one configuration's warmup and samples and
// summarizes its metrics.
//
// The measurement model: every sample times the SAME work — cfg.Samples
// repetitions of cfg.Iterations engine trials from the same seed — so
// the spread across samples is machine noise, not workload variation,
// and the confidence intervals quantify exactly the uncertainty a gate
// has to discount. Warmup samples run first and are discarded (caches,
// branch predictors, the scheduler and the allocator pools settle in).
// Allocations are counted from runtime.MemStats.Mallocs around the timed
// run after a forced GC; with ReuseResults on, the built-in processes
// sit at 0 allocs/op in steady state, so a sustained nonzero median here
// is a real hot-path regression. The graph is built once, before the
// warmup, as Engine.Run would build it from the spec, and its build time
// is reported apart (BuildMS): samples time trials only, so ns/op does
// not depend on the budget.
func measureConfig(ctx context.Context, cfg benchsuite.Config) (ConfigResult, error) {
	eng := dispersion.Engine{Seed: cfg.Seed, Workers: cfg.Workers, ReuseResults: true}
	job := cfg.Job()
	built := time.Now()
	g, err := graphspec.Build(job.Spec, cfg.Seed)
	if err != nil {
		return ConfigResult{}, err
	}
	buildMS := float64(time.Since(built).Nanoseconds()) / 1e6
	job.Graph = g
	for i := 0; i < cfg.Warmup; i++ {
		if err := eng.Run(ctx, job, nil); err != nil {
			return ConfigResult{}, err
		}
	}
	nsOp := make([]float64, 0, cfg.Samples)
	trialsSec := make([]float64, 0, cfg.Samples)
	allocsOp := make([]float64, 0, cfg.Samples)
	var ms0, ms1 runtime.MemStats
	for i := 0; i < cfg.Samples; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		if err := eng.Run(ctx, job, nil); err != nil {
			return ConfigResult{}, err
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms1)
		iters := float64(cfg.Iterations)
		nsOp = append(nsOp, float64(elapsed.Nanoseconds())/iters)
		trialsSec = append(trialsSec, iters/elapsed.Seconds())
		allocsOp = append(allocsOp, float64(ms1.Mallocs-ms0.Mallocs)/iters)
	}
	res := ConfigResult{Config: cfg, BuildMS: buildMS, Metrics: map[string]Metric{}}
	for name, samples := range map[string][]float64{
		"ns/op":      nsOp,
		"trials/sec": trialsSec,
		"allocs/op":  allocsOp,
	} {
		m, err := newMetric(samples)
		if err != nil {
			return ConfigResult{}, fmt.Errorf("summarizing %s: %w", name, err)
		}
		res.Metrics[name] = m
	}
	return res, nil
}
