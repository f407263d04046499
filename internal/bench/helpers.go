package bench

import (
	"context"
	"fmt"

	"dispersion"
	"dispersion/internal/graph"
	"dispersion/internal/rng"
	"dispersion/internal/stats"
	"dispersion/internal/walk"
)

// engine is the Engine an experiment's sampler with the given ID runs
// on: trial i draws the split stream (seed, expID, i).
func (c Config) engine(expID uint64) dispersion.Engine {
	return dispersion.Engine{Seed: c.Seed, Experiment: expID}
}

// sample runs trials realizations of the registered process on g from
// origin and returns their dispersion times (real time for the
// continuous-time processes), in trial order.
func (c Config) sample(g graph.Graph, origin int, process string, trials int, expID uint64, opts ...dispersion.Option) ([]float64, error) {
	return c.engine(expID).Sample(context.TODO(), dispersion.Job{
		Process: process, Graph: g, Origin: origin, Trials: trials, Options: opts})
}

// totalSteps is sample reduced to each trial's total jump count instead.
func (c Config) totalSteps(g graph.Graph, process string, trials int, expID uint64) ([]float64, error) {
	return c.engine(expID).TotalSteps(context.TODO(), dispersion.Job{
		Process: process, Graph: g, Trials: trials})
}

// each streams the Result of each of trials realizations of the
// registered process on g from vertex 0 to fn, in trial order. fn must
// not keep the Result past the call.
func (c Config) each(g graph.Graph, process string, trials int, expID uint64, fn func(*dispersion.Result) error, opts ...dispersion.Option) error {
	eng := c.engine(expID)
	eng.ReuseResults = true
	job := dispersion.Job{Process: process, Graph: g, Trials: trials, Options: opts}
	return eng.Run(context.TODO(), job, func(t dispersion.Trial) error { return fn(t.Result) })
}

// mean is sample from vertex 0 reduced to a Summary.
func (c Config) mean(g graph.Graph, process string, trials int, expID uint64, opts ...dispersion.Option) (stats.Summary, error) {
	xs, err := c.sample(g, 0, process, trials, expID, opts...)
	if err != nil {
		return stats.Summary{}, err
	}
	return stats.Summarize(xs), nil
}

// seqPar is mean of the Sequential and the Parallel process.
func (c Config) seqPar(g graph.Graph, trials int, seqID, parID uint64) (seq, par stats.Summary, err error) {
	if seq, err = c.mean(g, "sequential", trials, seqID); err != nil {
		return seq, par, err
	}
	par, err = c.mean(g, "parallel", trials, parID)
	return seq, par, err
}

// SampleCoverTime estimates the cover time of the simple random walk from
// the origin.
func SampleCoverTime(g *graph.CSR, origin int, trials int, seed, expID uint64) stats.Summary {
	rn := walk.NewRunner(seed, expID)
	xs := rn.Run(trials, func(_ int, r *rng.Source) float64 {
		steps, ok := walk.CoverTime(g, origin, 1<<40, r)
		if !ok {
			panic("bench: cover walk capped")
		}
		return float64(steps)
	})
	return stats.Summarize(xs)
}

// fm formats a float compactly for tables.
func fm(x float64) string {
	switch {
	case x == 0:
		return "0"
	case x >= 1e6 || x < 1e-3:
		return fmt.Sprintf("%.3g", x)
	case x >= 100:
		return fmt.Sprintf("%.0f", x)
	case x >= 1:
		return fmt.Sprintf("%.2f", x)
	default:
		return fmt.Sprintf("%.3f", x)
	}
}

// within reports |got-want| <= tol·want.
func within(got, want, tol float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= tol*want
}
