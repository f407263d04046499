// Command dispersion runs a dispersion process on a chosen graph family
// and reports dispersion-time statistics. The per-trial results can also
// be persisted through the dispersion/sink writers.
//
// Usage:
//
//	dispersion -graph complete:256 -process par -trials 200 -seed 1
//	dispersion -graph torus:16x16 -process seq -origin 0 -lazy
//	dispersion -graph regular:512,4 -process ctu -trials 100
//	dispersion -graph torus:16x16 -process cap -capacity 4 -trials 200
//	dispersion -graph hair:96 -process thresh -settle-param 1500 -trials 50
//	dispersion -graph complete:256 -trials 1000 -csv trials.csv -jsonl trials.jsonl
//	dispersion -graph complete:256 -trials 100000 -summary summary.json
//
// Graph specs: path:N cycle:N complete:N star:N hypercube:K bintree:LEVELS
// lollipop:N hair:N pimple:N,H treepath:LEVELS,PATHLEN grid:AxB torus:AxB
// circulant:N,S1[,S2...] rregular:N,D regular:N,D gnp:N,P tree:N
// wcomplete:N,ALPHA wcycle:N,B. The arithmetic families (torus,
// circulant, rregular, and the closed forms) build implicit backends, so
// million-vertex sizes run in O(particles) memory — e.g. -graph
// torus:2048x2048 -particles 4096. The w-prefixed families are weighted
// (alias-table walk kernels); -batch B lets the sequential process step
// blocks of at most B trials together on table-backed graphs (every other
// batched run is its unbatched twin), which changes no result.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"dispersion"
	"dispersion/graphspec"
	"dispersion/internal/stats"
	"dispersion/server"
	"dispersion/sink"
)

func main() {
	var (
		graphSpec = flag.String("graph", "complete:128", "graph family spec (see package doc)")
		process   = flag.String("process", "seq",
			"process: seq|par|unif|ctu|ctseq|geom|thresh|cap|cap-par (or a lazy- prefix)")
		origin        = flag.Int("origin", 0, "origin vertex")
		trials        = flag.Int("trials", 100, "number of independent trials")
		seed          = flag.Uint64("seed", 1, "random seed (reproducible)")
		lazy          = flag.Bool("lazy", false, "use lazy random walks")
		particles     = flag.Int("particles", 0, "disperse k particles instead of the default (0 = default)")
		randomOrigins = flag.Bool("random-origins", false, "sample each particle's origin uniformly")
		settleParam   = flag.Float64("settle-param", 0,
			"settle-rule parameter: geom's settle probability, thresh's minimum steps (0 = process default)")
		capacity = flag.Int("capacity", 0,
			"per-vertex capacity of the capacity processes (0 = default 2)")
		batch = flag.Int("batch", 0,
			"cap on the blocks of trials the sequential process steps together on table-backed graphs (other batched runs are unbatched); changes no result (0 = unbatched)")
		csvPath     = flag.String("csv", "", "write per-trial scalar rows as CSV to this file")
		jsonlPath   = flag.String("jsonl", "", "write full per-trial results as JSONL to this file")
		summaryPath = flag.String("summary", "", `write the mergeable agg.Summary JSON to this file ("-" = stdout)`)
		quiet       = flag.Bool("q", false, "print only the mean dispersion time")
	)
	flag.Parse()

	g, err := graphspec.Build(*graphSpec, *seed)
	if err != nil {
		fatal(err)
	}
	p, err := dispersion.Lookup(*process)
	if err != nil {
		fatal(err)
	}
	opts := server.Options{
		Lazy:          *lazy,
		Particles:     *particles,
		RandomOrigins: *randomOrigins,
		SettleParam:   *settleParam,
		Capacity:      *capacity,
		Batch:         *batch,
	}.Build()

	// The run streams every trial through one callback: makespan
	// collection for the statistics below, teed with the requested sinks.
	var (
		writers []sink.Writer
		flush   []func() error
		files   []io.Closer
	)
	for _, sel := range []struct {
		path string
		open func(f *os.File)
	}{
		{*csvPath, func(f *os.File) {
			cw := sink.NewCSV(f)
			writers = append(writers, cw)
			flush = append(flush, cw.Flush)
		}},
		{*jsonlPath, func(f *os.File) {
			writers = append(writers, sink.NewJSONL(f))
		}},
	} {
		if sel.path == "" {
			continue
		}
		f, err := os.Create(sel.path)
		if err != nil {
			fatal(err)
		}
		files = append(files, f)
		sel.open(f)
	}
	var aggregator *sink.Aggregator
	if *summaryPath != "" {
		aggregator = sink.NewAggregator()
		writers = append(writers, aggregator)
	}
	each := sink.Tee(writers...)

	xs := make([]float64, 0, *trials)
	eng := dispersion.Engine{Seed: *seed, Experiment: 0xd15b}
	err = eng.Run(context.Background(), dispersion.Job{
		Process: p.Name(),
		Graph:   g,
		Origin:  *origin,
		Trials:  *trials,
		Options: opts,
	}, func(t dispersion.Trial) error {
		xs = append(xs, t.Result.Makespan())
		return each(t)
	})
	// Flush buffered sink rows even when the run failed, so completed
	// trials are not lost; the run error still wins the exit status.
	for _, fl := range flush {
		if ferr := fl(); ferr != nil && err == nil {
			err = ferr
		}
	}
	if err != nil {
		fatal(err)
	}
	if aggregator != nil {
		out := os.Stdout
		if *summaryPath != "-" {
			f, err := os.Create(*summaryPath)
			if err != nil {
				fatal(err)
			}
			files = append(files, f)
			out = f
		}
		if err := sink.WriteSummary(out, aggregator.Summary()); err != nil {
			fatal(err)
		}
	}
	// Close the output files before printing: a close-time write failure
	// means a file may be truncated, and the statistics must not report a
	// complete run over it.
	if err := closeAll(files); err != nil {
		fatal(err)
	}

	s := stats.Summarize(xs)
	if *quiet {
		fmt.Printf("%.6g\n", s.Mean)
		return
	}
	lo, hi := s.CI95()
	fmt.Printf("graph        %s (n=%d, m=%d)\n", g.Name(), g.N(), edgeCount(g))
	fmt.Printf("process      %s (lazy=%v), origin %d, %d trials, seed %d\n",
		p.Name(), *lazy, *origin, *trials, *seed)
	fmt.Printf("dispersion   mean %.4g   95%% CI [%.4g, %.4g]\n", s.Mean, lo, hi)
	fmt.Printf("             median %.4g   min %.4g   max %.4g   sd %.4g\n",
		s.Median, s.Min, s.Max, s.StdDev)
	fmt.Printf("normalised   t/n = %.4g   t/(n ln n) = %.4g\n",
		s.Mean/float64(g.N()), s.Mean/(float64(g.N())*math.Log(float64(g.N()))))
}

// closeAll closes every file and returns the first close error.
func closeAll(files []io.Closer) error {
	var first error
	for _, f := range files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dispersion:", err)
	os.Exit(2)
}

// edgeCount sums degrees in O(n) without touching adjacency, so the
// banner works for implicit backends that never store edges.
func edgeCount(g dispersion.Graph) int64 {
	var sum int64
	for v := 0; v < g.N(); v++ {
		sum += int64(g.Degree(v))
	}
	return sum / 2
}
