package dispersion_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"dispersion"
	"dispersion/internal/core"
	"dispersion/internal/graph"
	"dispersion/internal/rng"
)

// collect gathers every trial result of a job, asserting in-order
// streaming delivery.
func collect(t *testing.T, eng dispersion.Engine, job dispersion.Job) []*dispersion.Result {
	t.Helper()
	out := make([]*dispersion.Result, 0, job.Trials)
	err := eng.Run(context.Background(), job, func(tr dispersion.Trial) error {
		if tr.Index != len(out) {
			t.Fatalf("trial delivered out of order: got index %d, want %d", tr.Index, len(out))
		}
		out = append(out, tr.Result)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEngineWorkerCountInvariance is the headline determinism contract:
// the same seed returns identical Results for 1 worker and N workers.
func TestEngineWorkerCountInvariance(t *testing.T) {
	for _, process := range []string{
		"sequential", "parallel", "ct-uniform",
		"sequential-geom", "sequential-threshold", "capacity", "capacity-parallel",
	} {
		t.Run(process, func(t *testing.T) {
			job := dispersion.Job{
				Process: process,
				Spec:    "torus:6x6",
				Trials:  40,
				Options: []dispersion.Option{dispersion.WithRecord()},
			}
			serial := collect(t, dispersion.Engine{Seed: 11, Experiment: 5, Workers: 1}, job)
			parallel := collect(t, dispersion.Engine{Seed: 11, Experiment: 5, Workers: 8}, job)
			if !reflect.DeepEqual(serial, parallel) {
				t.Fatal("engine results differ between 1 worker and 8 workers")
			}
		})
	}
}

// TestEngineMatchesLegacyHarness pins the engine's trial streams to a
// serial reference loop: trial i reseeds from the split stream (seed,
// experiment, i) and runs core.ParallelInto, as the pre-facade harness
// sampled.
func TestEngineMatchesLegacyHarness(t *testing.T) {
	g := graph.Complete(48)
	const trials, seed, exp = 60, 9, 77
	root := rng.New(seed)
	var src rng.Source
	var res core.Result
	want := make([]float64, trials)
	for i := range want {
		root.SplitInto(&src, exp, uint64(i))
		if err := core.ParallelInto(g, 0, core.Options{}, &src, nil, &res); err != nil {
			t.Fatal(err)
		}
		want[i] = float64(res.Dispersion)
	}
	got, err := dispersion.Engine{Seed: seed, Experiment: exp}.Sample(
		context.Background(),
		dispersion.Job{Process: "parallel", Graph: g, Trials: trials})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("engine sample differs from the serial reference loop")
	}
}

func TestEngineSpecVsGraph(t *testing.T) {
	g := graph.Complete(32)
	job := func(j dispersion.Job) []float64 {
		xs, err := dispersion.Engine{Seed: 4}.Sample(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		return xs
	}
	bySpec := job(dispersion.Job{Process: "uniform", Spec: "complete:32", Trials: 20})
	byGraph := job(dispersion.Job{Process: "uniform", Graph: g, Trials: 20})
	if !reflect.DeepEqual(bySpec, byGraph) {
		t.Fatal("spec-built and pre-built graphs disagree")
	}
}

func TestEngineTotalSteps(t *testing.T) {
	xs, err := dispersion.Engine{Seed: 2}.TotalSteps(context.Background(),
		dispersion.Job{Process: "sequential", Spec: "cycle:24", Trials: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) != 10 {
		t.Fatalf("got %d samples, want 10", len(xs))
	}
	for i, x := range xs {
		if x < 0 {
			t.Errorf("trial %d: negative total steps %v", i, x)
		}
	}
}

func TestEngineContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	delivered := 0
	err := dispersion.Engine{Seed: 1, Workers: 2}.Run(ctx,
		dispersion.Job{Process: "sequential", Spec: "complete:64", Trials: 100000},
		func(tr dispersion.Trial) error {
			delivered++
			if delivered == 3 {
				cancel()
			}
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if delivered >= 100000 {
		t.Fatal("cancellation did not stop the stream")
	}
}

func TestEngineCallbackError(t *testing.T) {
	sentinel := errors.New("stop here")
	delivered := 0
	err := dispersion.Engine{Seed: 1}.Run(context.Background(),
		dispersion.Job{Process: "sequential", Spec: "complete:16", Trials: 1000},
		func(tr dispersion.Trial) error {
			delivered++
			if delivered == 5 {
				return sentinel
			}
			return nil
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if delivered != 5 {
		t.Fatalf("delivered %d trials after error, want 5", delivered)
	}
}

func TestEngineTrialError(t *testing.T) {
	// Origin out of range: every trial fails; the first error surfaces.
	err := dispersion.Engine{Seed: 1}.Run(context.Background(),
		dispersion.Job{Process: "sequential", Spec: "complete:8", Origin: 99, Trials: 10}, nil)
	if err == nil {
		t.Fatal("invalid origin accepted")
	}
}

func TestEngineJobValidation(t *testing.T) {
	ctx := context.Background()
	cases := []dispersion.Job{
		{Process: "bogus", Spec: "complete:8", Trials: 1},
		{Process: "sequential", Trials: 1},                        // no graph, no spec
		{Process: "sequential", Spec: "complete:nope", Trials: 1}, // bad spec
		{Process: "sequential", Spec: "complete:8"},               // zero trials
		{Process: "sequential", Spec: "complete:8", Trials: -3},   // negative trials
	}
	for i, job := range cases {
		if err := (dispersion.Engine{}).Run(ctx, job, nil); err == nil {
			t.Errorf("case %d: invalid job accepted", i)
		}
	}
}

// TestEngineNilCallback checks that results can be discarded.
func TestEngineNilCallback(t *testing.T) {
	if err := (dispersion.Engine{Seed: 3}).Run(context.Background(),
		dispersion.Job{Process: "parallel", Spec: "complete:16", Trials: 8}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEngineReuseResultsEquivalence: recycling result cells must never
// change what a callback observes trial by trial.
func TestEngineReuseResultsEquivalence(t *testing.T) {
	for _, process := range []string{"sequential", "uniform", "ct-uniform"} {
		job := dispersion.Job{Process: process, Spec: "torus:6x6", Trials: 30}
		sample := func(reuse bool) []float64 {
			eng := dispersion.Engine{Seed: 8, Experiment: 2, ReuseResults: reuse}
			var out []float64
			err := eng.Run(context.Background(), job, func(tr dispersion.Trial) error {
				// Reduce inside the callback: under reuse the Result must
				// not be retained past the call.
				out = append(out, tr.Result.Makespan(), float64(tr.Result.TotalSteps))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		if !reflect.DeepEqual(sample(false), sample(true)) {
			t.Fatalf("%s: ReuseResults changed observed trial values", process)
		}
	}
}

// TestEngineSteadyStateZeroAllocs is the perf regression guard for the
// zero-allocation hot path: a non-Record job on a registered process,
// run with ReuseResults, must not allocate per trial in steady state.
// It is backed by the same allocation accounting as -benchmem
// (testing.BenchmarkResult.AllocsPerOp): the fixed per-run setup divides
// across b.N trials and the quotient must round to zero.
func TestEngineSteadyStateZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement needs a long steady-state run")
	}
	if raceEnabled {
		// The race detector makes sync.Pool drop items at random (to
		// widen race coverage), so per-trial allocation counts are not
		// meaningful under -race.
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	for _, process := range []string{
		"sequential", "parallel",
		"sequential-geom", "sequential-threshold", "capacity", "capacity-parallel",
	} {
		res := testing.Benchmark(func(b *testing.B) {
			eng := dispersion.Engine{Seed: 1, ReuseResults: true, Workers: 2}
			b.ReportAllocs()
			err := eng.Run(context.Background(), dispersion.Job{
				Process: process, Spec: "complete:64", Trials: b.N,
			}, func(dispersion.Trial) error { return nil })
			if err != nil {
				b.Fatal(err)
			}
		})
		if res.N < 1000 {
			t.Fatalf("%s: benchmark harness ran only %d trials; too few to amortize setup", process, res.N)
		}
		if allocs := res.AllocsPerOp(); allocs != 0 {
			t.Errorf("%s: steady-state engine loop allocates %d allocs/op (%d B/op), want 0",
				process, allocs, res.AllocedBytesPerOp())
		}
	}
}
