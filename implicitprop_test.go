package dispersion_test

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"dispersion"
	"dispersion/agg"
	"dispersion/internal/bounds"
	"dispersion/internal/graph"
	"dispersion/internal/markov"
	"dispersion/internal/stats"
)

// implicitTwin pairs an implicit backend with the CSR twin holding the
// identical sorted adjacency, so the two are interchangeable inputs for
// any process under the kernel draw contract.
type implicitTwin struct {
	implicit dispersion.Graph
	csr      *graph.CSR
}

func implicitTwins(t *testing.T) map[string]implicitTwin {
	t.Helper()
	twins := make(map[string]implicitTwin)
	add := func(name string, g dispersion.Graph) {
		csr, err := graph.Materialize(g)
		if err != nil {
			t.Fatalf("materialize %s: %v", name, err)
		}
		twins[name] = implicitTwin{implicit: g, csr: csr}
	}
	torus2, err := graph.ImplicitTorus([]int{5, 4})
	if err != nil {
		t.Fatal(err)
	}
	add("torus-5x4", torus2)
	torus3, err := graph.ImplicitTorus([]int{4, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	add("torus-4x3x5", torus3)
	circ, err := graph.ImplicitCirculant(17, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	add("circulant-17", circ)
	add("complete-16", graph.ImplicitComplete(16))
	add("cycle-14", graph.ImplicitCycle(14))
	add("path-13", graph.ImplicitPath(13))
	add("hypercube-4", graph.ImplicitHypercube(4))
	// The permutation construction yields a multigraph with small
	// probability; scan seeds for an instance Materialize accepts as
	// simple.
	for seed := uint64(0); seed < 64; seed++ {
		rr, err := graph.ImplicitRandomRegular(30, 4, seed)
		if err != nil {
			t.Fatal(err)
		}
		if csr, err := graph.Materialize(rr); err == nil {
			twins["rregular-30"] = implicitTwin{implicit: rr, csr: csr}
			break
		}
	}
	if _, ok := twins["rregular-30"]; !ok {
		t.Fatal("no simple random-regular instance in 64 seeds")
	}
	return twins
}

// TestImplicitProcessTwinBitIdentity pins every registered process
// bit-identical between an implicit backend and its CSR twin: same seed,
// same Result, same number of RNG draws. This is the process-level
// extension of the kernel-level stream identity proved in internal/graph.
func TestImplicitProcessTwinBitIdentity(t *testing.T) {
	for name, twin := range implicitTwins(t) {
		for _, pname := range dispersion.Processes() {
			p, err := dispersion.Lookup(pname)
			if err != nil {
				t.Fatal(err)
			}
			ri, rc := dispersion.NewSource(29), dispersion.NewSource(29)
			resI, err := p.Run(twin.implicit, 0, ri)
			if err != nil {
				t.Fatalf("%s on implicit %s: %v", pname, name, err)
			}
			resC, err := p.Run(twin.csr, 0, rc)
			if err != nil {
				t.Fatalf("%s on CSR %s: %v", pname, name, err)
			}
			if !reflect.DeepEqual(resI, resC) {
				t.Errorf("%s on %s: implicit and CSR results differ", pname, name)
			}
			if ri.Uint64() != rc.Uint64() {
				t.Errorf("%s on %s: implicit and CSR consumed different draw counts", pname, name)
			}
		}
	}
}

// TestImplicitProcessTwinBitIdentityOptions repeats the twin check under
// the option axes that reroute the hot paths: laziness, recording (which
// also exercises trajectory verification against the implicit edge test),
// and sub-n particle counts with random origins.
func TestImplicitProcessTwinBitIdentityOptions(t *testing.T) {
	optionSets := map[string][]dispersion.Option{
		"lazy":   {dispersion.WithLazy()},
		"record": {dispersion.WithRecord()},
		"sparse-origins": {
			dispersion.WithParticles(5),
			dispersion.WithRandomOrigins(),
		},
	}
	for name, twin := range implicitTwins(t) {
		for oname, opts := range optionSets {
			for _, pname := range []string{"sequential", "parallel", "uniform", "ct-uniform"} {
				p, err := dispersion.Lookup(pname)
				if err != nil {
					t.Fatal(err)
				}
				ri, rc := dispersion.NewSource(31), dispersion.NewSource(31)
				resI, err := p.Run(twin.implicit, 0, ri, opts...)
				if err != nil {
					t.Fatalf("%s/%s on implicit %s: %v", pname, oname, name, err)
				}
				resC, err := p.Run(twin.csr, 0, rc, opts...)
				if err != nil {
					t.Fatalf("%s/%s on CSR %s: %v", pname, oname, name, err)
				}
				if !reflect.DeepEqual(resI, resC) {
					t.Errorf("%s/%s on %s: implicit and CSR results differ", pname, oname, name)
				}
				if ri.Uint64() != rc.Uint64() {
					t.Errorf("%s/%s on %s: draw counts differ", pname, oname, name)
				}
				if oname == "record" {
					if err := resI.Check(twin.implicit); err != nil {
						t.Errorf("%s on %s: trajectory check against implicit edge test: %v", pname, name, err)
					}
				}
			}
		}
	}
}

// TestImplicitProcessTwinBitIdentityBatched extends the twin check to the
// batched lane, through Engine.Run at batch caps 4 and 64, for every
// process with a batched form, plain, lazy, and with sub-n particle counts
// and random origins. An implicit closed-form kernel computes its
// neighbour, so its batched jobs run the unbatched path, while a CSR
// twin's table kernel (csr or regular) steps the breadth-first lane
// superstep in blocks of up to 6 trials (12 trials on 2 workers); this
// pins the two paths against each other through the public engine.
func TestImplicitProcessTwinBitIdentityBatched(t *testing.T) {
	optionSets := map[string][]dispersion.Option{
		"plain": nil,
		"lazy":  {dispersion.WithLazy()},
		"sparse-origins": {
			dispersion.WithParticles(5),
			dispersion.WithRandomOrigins(),
		},
	}
	run := func(g dispersion.Graph, pname string, opts []dispersion.Option) ([]*dispersion.Result, error) {
		var out []*dispersion.Result
		err := dispersion.Engine{Seed: 37, Experiment: 2, Workers: 2}.Run(context.Background(),
			dispersion.Job{Process: pname, Graph: g, Trials: 12, Options: opts},
			func(tr dispersion.Trial) error {
				out = append(out, tr.Result)
				return nil
			})
		return out, err
	}
	batched := map[string]bool{}
	for name, twin := range implicitTwins(t) {
		for _, pname := range dispersion.Processes() {
			for oname, opts := range optionSets {
				for _, b := range []int{4, 64} {
					opts := append([]dispersion.Option{dispersion.WithBatch(b)}, opts...)
					resI, errI := run(twin.implicit, pname, opts)
					resC, errC := run(twin.csr, pname, opts)
					if (errI == nil) != (errC == nil) || errI != nil && errI.Error() != errC.Error() {
						t.Fatalf("%s/%s batch %d on %s: implicit err %v, CSR err %v", pname, oname, b, name, errI, errC)
					}
					if errI != nil {
						continue
					}
					batched[pname] = true
					if !reflect.DeepEqual(resI, resC) {
						t.Errorf("%s/%s batch %d on %s: implicit and CSR results differ", pname, oname, b, name)
					}
				}
			}
		}
	}
	if len(batched) != 8 {
		t.Errorf("%d processes ran batched, want the 8 Sequential-family ones: %v", len(batched), batched)
	}
}

// TestImplicitMakespanWithinTheoryBands simulates dispersion on implicit
// backends and checks the sampled makespans against the paper's bands
// computed from the materialized twin: the mean at least the Theorem 3.6
// expectation floor 2|E|/Δ (with the same slack the bounds package's own
// tests allow for sampling noise), and below the Theorem 3.1 ceiling
// 6·t_hit·log2 n.
func TestImplicitMakespanWithinTheoryBands(t *testing.T) {
	torus, err := graph.ImplicitTorus([]int{16, 16})
	if err != nil {
		t.Fatal(err)
	}
	circ, err := graph.ImplicitCirculant(256, []int{1, 7, 31})
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]dispersion.Graph{"torus-16x16": torus, "circulant-256": circ} {
		csr, err := graph.Materialize(g)
		if err != nil {
			t.Fatal(err)
		}
		h, err := markov.NewHitting(csr)
		if err != nil {
			t.Fatal(err)
		}
		thit, _, _ := h.Max()
		ceiling := bounds.Theorem31(thit, g.N())
		floor := bounds.EdgeDegreeLower(csr.M(), csr.MaxDegree())

		eng := dispersion.Engine{Seed: 17, Experiment: 3}
		xs, err := eng.Sample(context.Background(), dispersion.Job{
			Process: "sequential", Graph: g, Trials: 60,
		})
		if err != nil {
			t.Fatal(err)
		}
		mean := stats.Summarize(xs).Mean
		if mean < floor*0.9 {
			t.Errorf("%s: mean makespan %v below the 2|E|/Δ floor %v", name, mean, floor)
		}
		if mean > ceiling {
			t.Errorf("%s: mean makespan %v above the Theorem 3.1 ceiling %v", name, mean, ceiling)
		}
	}
}

// TestMillionVertexTorusSummaryOnly is the headline acceptance run: a
// 1024x1024 torus (n = 2^20 > 10^6) dispersing 4096 particles,
// summary-only, through the public engine. The graph is implicit and the
// occupancy sparse, so the whole pipeline must allocate O(particles +
// sketch) — the budget below is ~50x under the >= 20 MiB a materialized
// CSR would cost, and the run itself takes milliseconds.
func TestMillionVertexTorusSummaryOnly(t *testing.T) {
	eng := dispersion.Engine{Seed: 3, Experiment: 11, Workers: 1, ReuseResults: true}
	job := dispersion.Job{
		Process: "sequential",
		Spec:    "torus:1024x1024",
		Trials:  2,
		Options: []dispersion.Option{dispersion.WithParticles(4096)},
	}
	sum := agg.NewSummary()
	run := func() {
		if err := eng.Run(context.Background(), job, func(tr dispersion.Trial) error {
			sum.Add(tr.Result)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: summary sketches and steady-state buffers

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	run()
	runtime.ReadMemStats(&m1)
	if alloc := int64(m1.TotalAlloc) - int64(m0.TotalAlloc); alloc > 8<<20 {
		t.Errorf("summary-only trials on torus:1024x1024 allocated %d bytes (budget 8 MiB): "+
			"an O(n) graph or occupancy structure leaked into the sparse path", alloc)
	}
	if sum.Trials != 2*int64(job.Trials) {
		t.Fatalf("summary folded %d trials, want %d", sum.Trials, 2*job.Trials)
	}
	if sum.Makespan.Moments.Mean() <= 0 {
		t.Fatal("summary carries no makespan mass")
	}
}
