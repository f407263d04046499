package dispersion_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"dispersion"
	"dispersion/agg"
	"dispersion/internal/exact"
	"dispersion/internal/graph"
)

// TestBatchedSummaryInvariance is the batched determinism contract at the
// engine layer: over 10^4 trials on the 64-vertex clique with a hair
// (full load, the csr kernel) and the weighted 4096-cycle (32 particles,
// the alias kernel), both table-backed so every job steps lanes, the
// trial summary is byte-identical for every batch width, worker count
// and trial sharding — the batched stream depends only on the (seed,
// experiment, trial) lineage, never on scheduling.
func TestBatchedSummaryInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("10^4-trial invariance sweep")
	}
	const total = 10_000
	for _, tc := range []struct {
		spec string
		opts []dispersion.Option
	}{
		{"hair:64", nil},
		{"wcycle:4096,3", []dispersion.Option{dispersion.WithParticles(32)}},
	} {
		base := dispersion.Job{
			Process: "sequential",
			Spec:    tc.spec,
			Trials:  total,
			Options: append(append([]dispersion.Option(nil), tc.opts...), dispersion.WithBatch(64)),
		}
		_, want := foldSummary(t, dispersion.Engine{Seed: 5, Experiment: 3, Workers: 4}, base)

		// Different batch widths and worker counts over the contiguous
		// range.
		for _, v := range []struct {
			batch, workers int
			reuse          bool
		}{
			{1, 1, false},
			{7, 5, true},
			{256, 2, false},
		} {
			job := base
			job.Options = append(append([]dispersion.Option(nil), tc.opts...), dispersion.WithBatch(v.batch))
			eng := dispersion.Engine{Seed: 5, Experiment: 3, Workers: v.workers, ReuseResults: v.reuse}
			_, got := foldSummary(t, eng, job)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: batch %d workers %d diverged from the baseline summary", tc.spec, v.batch, v.workers)
			}
		}

		// Sharded: two FirstTrial ranges with different batch widths and
		// worker counts, merged.
		merged := agg.NewSummary()
		first := 0
		for i, shard := range []struct {
			trials, batch, workers int
		}{
			{4_000, 32, 3},
			{6_000, 128, 6},
		} {
			job := base
			job.FirstTrial, job.Trials = first, shard.trials
			job.Options = append(append([]dispersion.Option(nil), tc.opts...), dispersion.WithBatch(shard.batch))
			eng := dispersion.Engine{Seed: 5, Experiment: 3, Workers: shard.workers, ReuseResults: i%2 == 0}
			part, _ := foldSummary(t, eng, job)
			if err := merged.Merge(part); err != nil {
				t.Fatal(err)
			}
			first += shard.trials
		}
		got, err := json.Marshal(merged)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: sharded batched summary diverged from the contiguous one", tc.spec)
		}
	}
}

// TestBatchedMeanMatchesExact pins the batched path's dispersion mean on
// the 5-vertex clique with a hair (the csr kernel, so the job steps a
// lane) against the internal/exact subset DP — the ground-truth side of
// the "byte-identical to scalar" contract.
func TestBatchedMeanMatchesExact(t *testing.T) {
	g := graph.CliqueWithHair(5)
	e, err := exact.NewSequential(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	mean, tail := e.ExpectedDispersion(400)
	if tail > 1e-9 {
		t.Fatalf("exact computation truncated too early (tail %g)", tail)
	}
	eng := dispersion.Engine{Seed: 11, Experiment: 7}
	xs, err := eng.Sample(context.Background(), dispersion.Job{
		Process: "sequential",
		Graph:   g,
		Trials:  6000,
		Options: []dispersion.Option{dispersion.WithBatch(16)},
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	got := sum / float64(len(xs))
	if diff := math.Abs(got - mean); diff > 0.05*mean {
		t.Fatalf("batched mean %.4f vs exact %.4f (diff %.4f)", got, mean, diff)
	}
}

// TestBatchedMatchesScalarStats compares the batched and scalar paths as
// estimators on the same jobs, through Engine.Sample and
// Engine.TotalSteps on parsed specs: since a batched trial draws its
// scalar stream, the two samples, and so every statistic of them, must
// be equal, draw for draw.
func TestBatchedMatchesScalarStats(t *testing.T) {
	const trials = 6000
	for _, tc := range []struct {
		spec string
		opts []dispersion.Option
	}{
		{"complete:64", nil},
		{"cycle:4096", []dispersion.Option{dispersion.WithParticles(32)}},
		{"hair:64", nil}, // a table kernel: the batch steps the lane superstep
	} {
		base := dispersion.Job{Process: "sequential", Spec: tc.spec, Trials: trials, Options: tc.opts}
		batched := base
		batched.Options = append(append([]dispersion.Option(nil), tc.opts...), dispersion.WithBatch(64))
		eng := dispersion.Engine{Seed: 3, Experiment: 9}
		for name, sample := range map[string]func(context.Context, dispersion.Job) ([]float64, error){
			"dispersion": eng.Sample,
			"totalsteps": eng.TotalSteps,
		} {
			xs, err := sample(context.Background(), base)
			if err != nil {
				t.Fatal(err)
			}
			ys, err := sample(context.Background(), batched)
			if err != nil {
				t.Fatal(err)
			}
			if len(xs) != trials || !slices.Equal(xs, ys) {
				mx, _ := meanVar(xs)
				my, _ := meanVar(ys)
				t.Errorf("%s %s: batched sample differs from the scalar one (%d and %d trials, means %.4f and %.4f)",
					tc.spec, name, len(xs), len(ys), mx, my)
			}
		}
	}
}

// TestBatchedMatchesScalarBytes holds WithBatch to the one stream law
// through Engine.Run: a batched trial draws its scalar stream in the
// scalar loop's order, so each batched Result equals its unbatched twin
// field for field, and the agg.Summary bytes equal the unbatched run's
// at every batch width, across worker counts, two merged FirstTrial
// shards and ReuseResults; a one-shot Process.Run likewise. It covers
// every process WithBatch accepts on a graph of every kernel kind
// (closed-form, implicit, CSR and weighted), under every option set a
// batched job accepts: the standard law steps a lane on the table-backed
// kernels, and every other job runs the unbatched path. An invalid job
// must fail on both sides with the same error text.
func TestBatchedMatchesScalarBytes(t *testing.T) {
	must := func(g dispersion.Graph, err error) dispersion.Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	graphs := map[string]dispersion.Graph{
		"complete":  graph.Complete(12),
		"cycle":     graph.ImplicitCycle(14),
		"path":      graph.ImplicitPath(9),
		"hypercube": graph.ImplicitHypercube(4),
		"torus":     must(graph.ImplicitTorus([]int{4, 3})),
		"circulant": must(graph.ImplicitCirculant(13, []int{1, 4})),
		"rregular":  must(graph.ImplicitRandomRegular(14, 4, 3)),
		"csr":       graph.CliqueWithHair(9),
		"regular":   graph.Grid([]int{4, 4}, true),
		"walias":    must(graph.WeightedCycle(11, 3)),
		"wcomplete": must(graph.WeightedComplete(10, 1)),
	}
	optionSets := []struct {
		name string
		opts func(n int) []dispersion.Option
	}{
		{"plain", func(int) []dispersion.Option { return nil }},
		{"lazy", func(int) []dispersion.Option { return []dispersion.Option{dispersion.WithLazy()} }},
		{"origins", func(int) []dispersion.Option {
			return []dispersion.Option{dispersion.WithParticles(5), dispersion.WithRandomOrigins()}
		}},
		{"steps-50", func(int) []dispersion.Option { return []dispersion.Option{dispersion.WithMaxSteps(50)} }},
		{"steps-5000", func(int) []dispersion.Option { return []dispersion.Option{dispersion.WithMaxSteps(5000)} }},
		{"param-0.3", func(int) []dispersion.Option { return []dispersion.Option{dispersion.WithSettleParam(0.3)} }},
		{"param-4", func(int) []dispersion.Option { return []dispersion.Option{dispersion.WithSettleParam(4)} }},
		{"capacity-2", func(int) []dispersion.Option { return []dispersion.Option{dispersion.WithCapacity(2)} }},
		{"capacities", func(n int) []dispersion.Option {
			caps := make([]int, n)
			for v := range caps {
				caps[v] = 1 + v%3
			}
			return []dispersion.Option{dispersion.WithCapacities(caps)}
		}},
	}
	const trials = 20
	eng := dispersion.Engine{Seed: 37, Experiment: 2, Workers: 1}
	// run returns the job's results (nil under ReuseResults, which
	// recycles them) and its summary bytes.
	run := func(eng dispersion.Engine, job dispersion.Job) ([]*dispersion.Result, []byte, error) {
		var out []*dispersion.Result
		sum := agg.NewSummary()
		err := eng.Run(context.Background(), job, func(tr dispersion.Trial) error {
			if !eng.ReuseResults {
				out = append(out, tr.Result)
			}
			sum.Add(tr.Result)
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		b, err := json.Marshal(sum)
		return out, b, err
	}
	ran, failed := 0, 0
	for kind, g := range graphs {
		if got := g.Kernel().Kind(); got != kind {
			t.Fatalf("%s graph has kernel %q", kind, got)
		}
		for _, proc := range dispersion.Processes() {
			if !isLaneCapable(proc) {
				continue
			}
			for _, o := range optionSets {
				name := fmt.Sprintf("%s/%s on %s", proc, o.name, kind)
				// The one-shot Process.Run holds the same law.
				p, err := dispersion.Lookup(proc)
				if err != nil {
					t.Fatal(err)
				}
				one, errOne := p.Run(g, 0, dispersion.NewSource(5), o.opts(g.N())...)
				oneB, errOneB := p.Run(g, 0, dispersion.NewSource(5), append(o.opts(g.N()), dispersion.WithBatch(4))...)
				if (errOne == nil) != (errOneB == nil) || errOne != nil && errOne.Error() != errOneB.Error() {
					t.Fatalf("%s one-shot: batched err %v, unbatched err %v", name, errOneB, errOne)
				}
				if !reflect.DeepEqual(one, oneB) {
					t.Fatalf("%s one-shot: batched result differs from the unbatched one", name)
				}
				job := dispersion.Job{Process: proc, Graph: g, Trials: trials, Options: o.opts(g.N())}
				want, wantSum, wantErr := run(eng, job)
				for _, b := range []int{1, 8, 64} {
					batched := job
					batched.Options = append(o.opts(g.N()), dispersion.WithBatch(b))
					got, gotSum, err := run(eng, batched)
					if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
						t.Fatalf("%s batch %d: err %v, unbatched err %v", name, b, err, wantErr)
					}
					if err != nil {
						failed++
						continue
					}
					ran++
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s batch %d: results differ from the unbatched run's", name, b)
					}
					if !bytes.Equal(gotSum, wantSum) {
						t.Fatalf("%s batch %d: summary differs from the unbatched run's", name, b)
					}
					for _, split := range []struct {
						name string
						eng  dispersion.Engine
					}{
						{"workers 3", dispersion.Engine{Seed: 37, Experiment: 2, Workers: 3}},
						{"ReuseResults", dispersion.Engine{Seed: 37, Experiment: 2, Workers: 2, ReuseResults: true}},
					} {
						if _, gotSum, err := run(split.eng, batched); err != nil || !bytes.Equal(gotSum, wantSum) {
							t.Fatalf("%s batch %d, %s: summary differs from the unbatched run's (err %v)", name, b, split.name, err)
						}
					}
					merged := agg.NewSummary()
					for _, r := range [][2]int{{0, 7}, {7, trials - 7}} {
						shard := batched
						shard.FirstTrial, shard.Trials = r[0], r[1]
						part, _ := foldSummary(t, dispersion.Engine{Seed: 37, Experiment: 2, Workers: 2}, shard)
						if err := merged.Merge(part); err != nil {
							t.Fatal(err)
						}
					}
					if gotSum, err := json.Marshal(merged); err != nil || !bytes.Equal(gotSum, wantSum) {
						t.Fatalf("%s batch %d: merged shard summaries differ from the unbatched run's (err %v)", name, b, err)
					}
				}
			}
		}
	}
	// Batched jobs must have run, and the invalid option sets (a
	// geometric q above 1, say) must have failed somewhere.
	if ran == 0 || failed == 0 {
		t.Fatalf("%d batched jobs ran and %d failed; want both", ran, failed)
	}
}

// meanVar returns the sample mean and (unbiased) variance of xs.
func meanVar(xs []float64) (mean, variance float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		variance += d * d
	}
	variance /= float64(len(xs) - 1)
	return mean, variance
}

// TestWeightedRegistry runs every registered process on a weighted
// backend — the alias-table kernel behind graph.WeightedCSR — checks each
// result's structural invariants, and requires the result stream to be
// worker-count invariant, extending the registry determinism suite to
// weighted graphs. Lane-capable processes repeat the run batched.
func TestWeightedRegistry(t *testing.T) {
	g, err := graph.WeightedComplete(12, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	for _, proc := range dispersion.Processes() {
		job := dispersion.Job{Process: proc, Graph: g, Trials: 8}
		_, want := foldSummary(t, dispersion.Engine{Seed: 2, Experiment: 4, Workers: 1}, job)
		err := dispersion.Engine{Seed: 2, Experiment: 4, Workers: 5}.Run(context.Background(), job,
			func(tr dispersion.Trial) error { return tr.Result.Check(g) })
		if err != nil {
			t.Fatalf("%s on %s: %v", proc, g.Name(), err)
		}
		_, got := foldSummary(t, dispersion.Engine{Seed: 2, Experiment: 4, Workers: 5}, job)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s on %s: summary depends on worker count", proc, g.Name())
		}

		batched := job
		batched.Options = []dispersion.Option{dispersion.WithBatch(3)}
		err = dispersion.Engine{Seed: 2, Experiment: 4}.Run(context.Background(), batched,
			func(tr dispersion.Trial) error { return tr.Result.Check(g) })
		if isLaneCapable(proc) {
			if err != nil {
				t.Fatalf("%s batched on %s: %v", proc, g.Name(), err)
			}
		} else if err == nil {
			t.Fatalf("%s: WithBatch accepted by a process with no batched form", proc)
		}
	}
}

// isLaneCapable reports whether the process has a batched form
// (Sequential-family only; see WithBatch).
func isLaneCapable(proc string) bool {
	switch proc {
	case "sequential", "sequential-geom", "sequential-threshold", "capacity",
		"lazy-sequential", "lazy-sequential-geom", "lazy-sequential-threshold", "lazy-capacity":
		return true
	}
	return false
}

// TestBatchedManyWorkersSmallB floods the lane scheduler with far more
// workers than lane slots — the CI -race smoke shape — and checks the
// delivery order and per-trial invariants survive. The clique with a
// hair has the csr kernel, so every block steps a lane.
func TestBatchedManyWorkersSmallB(t *testing.T) {
	g := graph.CliqueWithHair(16)
	eng := dispersion.Engine{Seed: 13, Experiment: 1, Workers: 16, ReuseResults: true}
	next := 0
	err := eng.Run(context.Background(), dispersion.Job{
		Process: "sequential",
		Graph:   g,
		Trials:  600,
		Options: []dispersion.Option{dispersion.WithBatch(2)},
	}, func(tr dispersion.Trial) error {
		if tr.Index != next {
			t.Fatalf("trial %d delivered out of order (want %d)", tr.Index, next)
		}
		next++
		return tr.Result.Check(g)
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != 600 {
		t.Fatalf("delivered %d trials, want 600", next)
	}
}

// TestCapacitiesMatchExact pins WithCapacities runs — scalar and batched
// — against the vector-capacity DP in internal/exact on K_4 and the
// 4-vertex star: the total-steps and dispersion means must match the
// exact constants.
func TestCapacitiesMatchExact(t *testing.T) {
	const trials = 6000
	for _, tc := range []struct {
		g    *graph.CSR
		caps []int
	}{
		{graph.Complete(4), []int{2, 1, 1, 3}},
		{graph.Star(4), []int{1, 2, 1, 2}},
	} {
		wantTotal, err := exact.CapacityVecExpectedTotalSteps(tc.g, 0, tc.caps, 0)
		if err != nil {
			t.Fatal(err)
		}
		wantDisp, tail, err := exact.CapacityVecExpectedDispersion(tc.g, 0, tc.caps, 0, 400)
		if err != nil {
			t.Fatal(err)
		}
		if tail > 1e-9 {
			t.Fatalf("%s: exact dispersion truncated too early (tail %g)", tc.g.Name(), tail)
		}
		for name, opts := range map[string][]dispersion.Option{
			"scalar":  {dispersion.WithCapacities(tc.caps)},
			"batched": {dispersion.WithCapacities(tc.caps), dispersion.WithBatch(16)},
		} {
			eng := dispersion.Engine{Seed: 17, Experiment: 5}
			job := dispersion.Job{Process: "capacity", Graph: tc.g, Trials: trials, Options: opts}
			totals, err := eng.TotalSteps(context.Background(), job)
			if err != nil {
				t.Fatal(err)
			}
			disps, err := eng.Sample(context.Background(), job)
			if err != nil {
				t.Fatal(err)
			}
			mt, _ := meanVar(totals)
			md, _ := meanVar(disps)
			if diff := math.Abs(mt - wantTotal); diff > 0.05*wantTotal+0.05 {
				t.Errorf("%s %s: total-steps mean %.4f vs exact %.4f", tc.g.Name(), name, mt, wantTotal)
			}
			if diff := math.Abs(md - wantDisp); diff > 0.05*wantDisp+0.05 {
				t.Errorf("%s %s: dispersion mean %.4f vs exact %.4f", tc.g.Name(), name, md, wantDisp)
			}
		}
	}
}

// TestBatchedOptionErrors covers the engine-level rejections of WithBatch
// combinations the lane cannot honor.
func TestBatchedOptionErrors(t *testing.T) {
	g := graph.Complete(8)
	run := func(proc string, opts ...dispersion.Option) error {
		return dispersion.Engine{Seed: 1}.Run(context.Background(),
			dispersion.Job{Process: proc, Graph: g, Trials: 4, Options: opts}, nil)
	}
	if err := run("parallel", dispersion.WithBatch(8)); err == nil {
		t.Error("WithBatch accepted on the parallel process")
	}
	if err := run("sequential", dispersion.WithBatch(8), dispersion.WithRecord()); err == nil {
		t.Error("WithBatch + WithRecord accepted")
	}
	if err := run("sequential", dispersion.WithBatch(8),
		dispersion.WithSettleRule(func(v int32, step int64) bool { return true })); err == nil {
		t.Error("WithBatch + WithSettleRule accepted")
	}
	if err := run("sequential", dispersion.WithBatch(-3)); err == nil {
		t.Error("negative batch width accepted")
	}

	// The one-shot Process.Run path rejects the same shapes.
	p, err := dispersion.Lookup("parallel")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(g, 0, dispersion.NewSource(1), dispersion.WithBatch(4)); err == nil {
		t.Error("one-shot WithBatch accepted on the parallel process")
	}
}

// TestBatchedMaxIntTrials runs a batched job of math.MaxInt trials, whose
// block count once wrapped negative so that Run returned nil having
// delivered nothing. The callback stops the job after five trials. The
// spec is table-backed (the csr kernel), so the job runs lane blocks.
func TestBatchedMaxIntTrials(t *testing.T) {
	stop := errors.New("stop")
	var got []int
	err := dispersion.Engine{Seed: 1, Workers: 1}.Run(context.Background(), dispersion.Job{
		Process: "sequential",
		Spec:    "hair:4",
		Trials:  math.MaxInt,
		Options: []dispersion.Option{dispersion.WithBatch(2)},
	}, func(tr dispersion.Trial) error {
		got = append(got, tr.Index)
		if len(got) == 5 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("Run returned %v after %d trials, want the callback's stop after 5", err, len(got))
	}
	for i, idx := range got {
		if idx != i {
			t.Fatalf("delivered trial indices %v, want 0..4", got)
		}
	}
}

// TestBatchedRangeEndingAtMaxInt runs a batched job whose trial range
// ends at math.MaxInt, where the last block's end once overflowed: it
// delivered 8 trials for 5, three with wrapped negative indices. It must
// deliver exactly the range, with the results of the same trials run one
// per block. The spec is table-backed (the csr kernel), so the job runs
// lane blocks.
func TestBatchedRangeEndingAtMaxInt(t *testing.T) {
	run := func(b int) ([]int, []int64) {
		var idx []int
		var totals []int64
		err := dispersion.Engine{Seed: 1, Workers: 1}.Run(context.Background(), dispersion.Job{
			Process:    "sequential",
			Spec:       "hair:4",
			FirstTrial: math.MaxInt - 5,
			Trials:     5,
			Options:    []dispersion.Option{dispersion.WithBatch(b)},
		}, func(tr dispersion.Trial) error {
			idx = append(idx, tr.Index)
			totals = append(totals, tr.Result.TotalSteps)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return idx, totals
	}
	idx, totals := run(4)
	if len(idx) != 5 {
		t.Fatalf("delivered trials %v, want the 5 ending at MaxInt-1", idx)
	}
	for i, x := range idx {
		if x != math.MaxInt-5+i {
			t.Fatalf("delivered trials %v, want the 5 ending at MaxInt-1", idx)
		}
	}
	if _, want := run(1); !slices.Equal(totals, want) {
		t.Fatalf("total steps %v at batch 4, %v at batch 1", totals, want)
	}
}
