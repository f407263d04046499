package core

import (
	"strings"
	"testing"

	"dispersion/internal/graph"
	"dispersion/internal/rng"
)

// laneSeeds returns count deterministic trial seeds.
func laneSeeds(count int) []uint64 {
	src := rng.New(7)
	seeds := make([]uint64, count)
	for i := range seeds {
		seeds[i] = src.Uint64()
	}
	return seeds
}

// runLane runs RunLane over the seeds and returns the per-trial results.
func runLane(t *testing.T, g graph.Graph, origin int, opt Options, variant LaneVariant, seeds []uint64) []*Result {
	t.Helper()
	outs := make([]*Result, len(seeds))
	for i := range outs {
		outs[i] = new(Result)
	}
	if err := RunLane(g, origin, opt, variant, seeds, NewScratch(), outs); err != nil {
		t.Fatal(err)
	}
	return outs
}

// resultsEqual compares two results field by field.
func resultsEqual(a, b *Result) bool {
	if a.Dispersion != b.Dispersion || a.TotalSteps != b.TotalSteps ||
		a.Truncated != b.Truncated || a.Capacity != b.Capacity ||
		len(a.Steps) != len(b.Steps) || len(a.SettleOrder) != len(b.SettleOrder) {
		return false
	}
	for i := range a.Steps {
		if a.Steps[i] != b.Steps[i] || a.SettledAt[i] != b.SettledAt[i] {
			return false
		}
	}
	for i := range a.SettleOrder {
		if a.SettleOrder[i] != b.SettleOrder[i] || a.SettleClock[i] != b.SettleClock[i] {
			return false
		}
	}
	return true
}

// laneVariants enumerates every batched law with its options.
func laneVariants() map[string]struct {
	variant LaneVariant
	opt     Options
} {
	return map[string]struct {
		variant LaneVariant
		opt     Options
	}{
		"standard":         {LaneStandard, Options{}},
		"standard-lazy":    {LaneStandard, Options{Lazy: true}},
		"standard-origins": {LaneStandard, Options{RandomOrigins: true}},
		"standard-partial": {LaneStandard, Options{Particles: 5}},
		"geom":             {LaneGeom, Options{}},
		"geom-lazy":        {LaneGeom, Options{Lazy: true, SettleParam: 0.25}},
		"threshold":        {LaneThreshold, Options{}},
		"threshold-short":  {LaneThreshold, Options{SettleParam: 3}},
		"capacity":         {LaneCapacity, Options{}},
		"capacity-3":       {LaneCapacity, Options{Capacity: 3, RandomOrigins: true}},
	}
}

// TestLaneBatchInvariance pins the core determinism contract of the
// batched mode: a trial's result is a pure function of its seed, so any
// batch width yields bit-identical results for every variant.
func TestLaneBatchInvariance(t *testing.T) {
	seeds := laneSeeds(24)
	for _, g := range []graph.Graph{graph.Complete(16), graph.Cycle(17)} {
		for name, tc := range laneVariants() {
			opt := tc.opt
			opt.Batch = 1
			base := runLane(t, g, 0, opt, tc.variant, seeds)
			for _, b := range []int{3, 8, 64} {
				opt.Batch = b
				got := runLane(t, g, 0, opt, tc.variant, seeds)
				for i := range got {
					if !resultsEqual(base[i], got[i]) {
						t.Fatalf("%s %s: trial %d differs between batch 1 and batch %d", g.Name(), name, i, b)
					}
				}
			}
		}
	}
}

// breadthFirst wraps a graph so that its kernel hides WalkLane: RunLane
// then lays the lane out breadth-first, one StepLane move per superstep,
// whatever the kernel.
type breadthFirst struct{ graph.Graph }

// Kernel returns the graph's kernel with only the Kernel methods.
func (g breadthFirst) Kernel() graph.Kernel { return stepOnly{g.Graph.Kernel()} }

// stepOnly is a kernel without the optional LaneWalker form.
type stepOnly struct{ graph.Kernel }

// TestLaneLayoutsAgree pins the depth-first layout to the breadth-first
// one on every closed-form kernel: the same seeds give the same results,
// or the same error, under all four laws and every golden option set,
// at widths that rehost slots and at one wider than the seed set.
func TestLaneLayoutsAgree(t *testing.T) {
	graphs := []graph.Graph{
		graph.Complete(2), graph.ImplicitComplete(11), graph.ImplicitCycle(3), graph.Cycle(13),
		graph.ImplicitPath(2), graph.Path(9), graph.ImplicitHypercube(1), graph.ImplicitHypercube(5),
	}
	graphs = append(graphs, goldenTori()[2]) // 6x1x4: a side-1 dimension
	variants := map[string]LaneVariant{
		"standard": LaneStandard, "geom": LaneGeom, "threshold": LaneThreshold, "capacity": LaneCapacity,
	}
	seeds := laneSeeds(9)
	for _, g := range graphs {
		if _, ok := g.Kernel().(graph.LaneWalker); !ok {
			t.Fatalf("%s: kernel %q has no WalkLane", g.Name(), g.Kernel().Kind())
		}
		for vname, variant := range variants {
			for _, o := range goldenOptions() {
				for _, batch := range []int{4, 64} {
					opt := o.opt(g.N())
					opt.Batch = batch
					outs := func(g graph.Graph) ([]*Result, error) {
						outs := make([]*Result, len(seeds))
						for i := range outs {
							outs[i] = new(Result)
						}
						return outs, RunLane(g, 0, opt, variant, seeds, NewScratch(), outs)
					}
					depth, errD := outs(g)
					breadth, errB := outs(breadthFirst{g})
					if (errD == nil) != (errB == nil) || errD != nil && errD.Error() != errB.Error() {
						t.Fatalf("%s %s/%s batch %d: depth-first err %v, breadth-first err %v", g.Name(), vname, o.name, batch, errD, errB)
					}
					if errD != nil {
						continue
					}
					for i := range depth {
						if !resultsEqual(depth[i], breadth[i]) {
							t.Fatalf("%s %s/%s batch %d: trial %d differs between the layouts", g.Name(), vname, o.name, batch, i)
						}
					}
				}
			}
		}
	}
}

// TestLaneScratchAcrossLayouts reuses one Scratch for width-1 lanes that
// lay out different rows: a depth-first lane keeps occupancy stamps (and
// counts, under the capacity law), a breadth-first one stamps or, under
// the capacity law, counts alone. In each sequence the middle run takes
// 254 trials, so the last run's first trial reuses the first run's last
// epoch: a stamp or count that outlived the middle run would collide
// with it. Every run must match a run on a fresh Scratch.
func TestLaneScratchAcrossLayouts(t *testing.T) {
	g := graph.ImplicitCycle(13)
	// A stale stamp on every vertex would walk forever; the budget turns
	// it into a truncated trial.
	opt := Options{Batch: 1, Particles: 7, MaxSteps: 1 << 16}
	type lane struct {
		g       graph.Graph
		variant LaneVariant
	}
	depthStd, depthCap := lane{g, LaneStandard}, lane{g, LaneCapacity}
	breadthStd, breadthCap := lane{breadthFirst{g}, LaneStandard}, lane{breadthFirst{g}, LaneCapacity}
	for i, seq := range [][3]lane{
		{depthStd, breadthCap, depthStd},
		{breadthCap, depthStd, breadthCap},
		{depthCap, breadthStd, depthCap},
		{breadthStd, depthCap, breadthCap},
	} {
		s := NewScratch()
		for r, run := range seq {
			seeds := laneSeeds(300)
			if r == 1 {
				seeds = seeds[:254]
			}
			want := runLane(t, run.g, 0, opt, run.variant, seeds)
			outs := make([]*Result, len(seeds))
			for k := range outs {
				outs[k] = new(Result)
			}
			if err := RunLane(run.g, 0, opt, run.variant, seeds, s, outs); err != nil {
				t.Fatal(err)
			}
			for k := range outs {
				if !resultsEqual(outs[k], want[k]) {
					t.Fatalf("sequence %d, run %d: trial %d differs from a fresh Scratch's", i, r, k)
				}
			}
		}
	}
}

// TestLaneResultsCheck validates every variant's batched results against
// the structural run invariants (full occupancy, clock monotonicity,
// dispersion = max steps).
func TestLaneResultsCheck(t *testing.T) {
	seeds := laneSeeds(16)
	g := graph.Complete(12)
	for name, tc := range laneVariants() {
		opt := tc.opt
		opt.Batch = 8
		for _, res := range runLane(t, g, 0, opt, tc.variant, seeds) {
			if res.Truncated {
				t.Fatalf("%s: unexpected truncation", name)
			}
			if err := res.Check(g); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if unsettled(res) != 0 {
				t.Fatalf("%s: %d unsettled particles", name, unsettled(res))
			}
		}
	}
}

// TestLaneEpochWrap crosses the per-slot epoch wrap (255 trials per slot)
// on a narrow lane and checks results still match a wide lane that never
// wraps.
func TestLaneEpochWrap(t *testing.T) {
	seeds := laneSeeds(600)
	g := graph.Complete(4)
	s := NewScratch()
	narrow := make([]*Result, len(seeds))
	for i := range narrow {
		narrow[i] = new(Result)
	}
	// One shared Scratch across two runs, so the second run's slots carry
	// epochs from the first — the reuse path the engine exercises.
	if err := RunLane(g, 0, Options{Batch: 2}, LaneStandard, seeds, s, narrow); err != nil {
		t.Fatal(err)
	}
	if err := RunLane(g, 0, Options{Batch: 2}, LaneStandard, seeds, s, narrow); err != nil {
		t.Fatal(err)
	}
	wide := runLane(t, g, 0, Options{Batch: 64}, LaneStandard, seeds)
	for i := range seeds {
		if !resultsEqual(narrow[i], wide[i]) {
			t.Fatalf("trial %d differs across the epoch wrap", i)
		}
	}
}

// TestLaneTruncation pins the batched truncation law to the scalar one:
// the budget check runs after the step, so a particle that reached a
// settleable vertex on the budget-exhausting step still truncates, and
// the partial particle's steps are included in TotalSteps.
func TestLaneTruncation(t *testing.T) {
	g := graph.Cycle(64)
	seeds := laneSeeds(32)
	opt := Options{Batch: 8, MaxSteps: 50}
	for name, variant := range map[string]LaneVariant{
		"standard": LaneStandard, "geom": LaneGeom, "capacity": LaneCapacity,
	} {
		for _, res := range runLane(t, g, 0, opt, variant, seeds) {
			if !res.Truncated {
				continue
			}
			var sum int64
			for _, s := range res.Steps {
				sum += s
			}
			if sum != res.TotalSteps {
				t.Fatalf("%s: truncated TotalSteps %d != sum of Steps %d", name, res.TotalSteps, sum)
			}
			if res.TotalSteps < opt.MaxSteps {
				t.Fatalf("%s: truncated below the budget: %d < %d", name, res.TotalSteps, opt.MaxSteps)
			}
			if unsettled(res) == 0 {
				t.Fatalf("%s: truncated run settled everything", name)
			}
		}
	}
	// On a 64-cycle, dispersing all 64 particles within 50 total steps is
	// impossible, so every trial must truncate.
	for _, res := range runLane(t, g, 0, opt, LaneStandard, seeds) {
		if !res.Truncated {
			t.Fatal("standard: 64-cycle trial completed under a 50-step budget")
		}
	}
}

// TestLaneCapacityVector runs the batched capacity process under a
// per-vertex capacity vector and checks the aggregate fills each vertex
// to exactly its own capacity.
func TestLaneCapacityVector(t *testing.T) {
	g := graph.Complete(4)
	caps := []int{3, 1, 2, 5}
	opt := Options{Batch: 4, Capacities: caps}
	for _, res := range runLane(t, g, 0, opt, LaneCapacity, laneSeeds(12)) {
		if res.Capacity != 5 {
			t.Fatalf("Result.Capacity = %d, want the vector max 5", res.Capacity)
		}
		if len(res.Steps) != 11 {
			t.Fatalf("ran %d particles, want the summed capacity 11", len(res.Steps))
		}
		hosts := make([]int, g.N())
		for _, v := range res.SettledAt {
			hosts[v]++
		}
		for v, c := range caps {
			if hosts[v] != c {
				t.Fatalf("vertex %d hosts %d particles, want its capacity %d", v, hosts[v], c)
			}
		}
	}
}

// TestScalarCapacityVector is the scalar twin of the vector-capacity law
// on both the cnt-packed Sequential walk and the Parallel rounds.
func TestScalarCapacityVector(t *testing.T) {
	g := graph.Star(4)
	caps := []int{2, 1, 3, 1}
	for name, run := range map[string]func(Options, *rng.Source) (*Result, error){
		"sequential": func(o Options, r *rng.Source) (*Result, error) { return runOnce(CapacitySequentialInto, g, 0, o, r) },
		"parallel":   func(o Options, r *rng.Source) (*Result, error) { return runOnce(CapacityParallelInto, g, 0, o, r) },
	} {
		res, err := run(Options{Capacities: caps}, rng.New(3))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Capacity != 3 {
			t.Fatalf("%s: Result.Capacity = %d, want the vector max 3", name, res.Capacity)
		}
		if len(res.Steps) != 7 {
			t.Fatalf("%s: ran %d particles, want the summed capacity 7", name, len(res.Steps))
		}
		hosts := make([]int, g.N())
		for _, v := range res.SettledAt {
			hosts[v]++
		}
		for v, c := range caps {
			if hosts[v] != c {
				t.Fatalf("%s: vertex %d hosts %d particles, want %d", name, v, hosts[v], c)
			}
		}
		if err := res.Check(g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestCapacityVectorErrors checks the vector validation shared by the
// scalar and batched paths.
func TestCapacityVectorErrors(t *testing.T) {
	g := graph.Complete(4)
	for name, opt := range map[string]Options{
		"with uniform too": {Capacities: []int{1, 1, 1, 1}, Capacity: 2},
		"wrong length":     {Capacities: []int{1, 1}},
		"zero entry":       {Capacities: []int{1, 0, 1, 1}},
		"huge entry":       {Capacities: []int{1, maxCapacity + 1, 1, 1}},
		"too many":         {Capacities: []int{1, 1, 1, 1}, Particles: 5},
	} {
		if _, err := runOnce(CapacitySequentialInto, g, 0, opt, rng.New(1)); err == nil {
			t.Fatalf("%s: scalar run succeeded", name)
		}
		opt.Batch = 2
		outs := []*Result{new(Result)}
		if err := RunLane(g, 0, opt, LaneCapacity, []uint64{1}, nil, outs); err == nil {
			t.Fatalf("%s: lane run succeeded", name)
		}
	}
}

// TestLaneErrors checks the lane-specific rejections.
func TestLaneErrors(t *testing.T) {
	g := graph.Complete(4)
	outs := []*Result{new(Result)}
	seeds := []uint64{1}
	for name, tc := range map[string]struct {
		opt     Options
		variant LaneVariant
		seeds   []uint64
		outs    []*Result
		wantSub string
	}{
		"no batch":      {Options{}, LaneStandard, seeds, outs, "batch width"},
		"batch too big": {Options{Batch: maxBatch + 1}, LaneStandard, seeds, outs, "batch width"},
		"record":        {Options{Batch: 2, Record: true}, LaneStandard, seeds, outs, "record"},
		"rule":          {Options{Batch: 2, Rule: func(int32, int64) bool { return true }}, LaneStandard, seeds, outs, "settle rule"},
		"mismatch":      {Options{Batch: 2}, LaneStandard, []uint64{1, 2}, outs, "seeds"},
		"none variant":  {Options{Batch: 2}, LaneNone, seeds, outs, "no batched form"},
	} {
		err := RunLane(g, 0, tc.opt, tc.variant, tc.seeds, nil, tc.outs)
		if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Fatalf("%s: err = %v, want substring %q", name, err, tc.wantSub)
		}
	}
	if err := RunLane(g, 99, Options{Batch: 2}, LaneStandard, seeds, nil, outs); err == nil {
		t.Fatal("invalid origin accepted")
	}
	// A huge implicit graph times a wide lane overflows the occupancy
	// bound (the width only reaches Batch when enough seeds are pending).
	// The bound counts the physical width: the breadth-first layout lays
	// out 64 rows, the depth-first one a single row, which fits.
	big := graph.ImplicitComplete(1 << 24)
	bigSeeds := laneSeeds(64)
	bigOuts := make([]*Result, len(bigSeeds))
	for i := range bigOuts {
		bigOuts[i] = new(Result)
	}
	if err := RunLane(breadthFirst{big}, 0, Options{Batch: 64, Particles: 1}, LaneStandard, bigSeeds, nil, bigOuts); err == nil ||
		!strings.Contains(err.Error(), "occupancy") {
		t.Fatalf("occupancy bound: err = %v", err)
	}
	if err := RunLane(big, 0, Options{Batch: 64, Particles: 1}, LaneStandard, bigSeeds, nil, bigOuts); err != nil {
		t.Fatalf("depth-first lane of width 1: %v", err)
	}
	// A breadth-first capacity cell holds a count (4 bytes); only the
	// depth-first lane, whose walk tests the occupancy row, adds a stamp.
	if got := laneCellBytes(LaneCapacity, false); got != 4 {
		t.Fatalf("breadth-first capacity cell: %d bytes, want 4", got)
	}
	huge := graph.ImplicitCycle(1 << 26) // 5·2^26 bytes > the bound
	if err := RunLane(huge, 0, Options{Batch: 64, Particles: 1}, LaneCapacity, bigSeeds, nil, bigOuts); err == nil ||
		!strings.Contains(err.Error(), "occupancy") {
		t.Fatalf("depth-first capacity occupancy bound: err = %v", err)
	}
	// Empty seed sets are a no-op.
	if err := RunLane(g, 0, Options{Batch: 2}, LaneStandard, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLaneGeomDefaultMatchesScalarParams checks geom and threshold
// parameter validation flows through the lane path.
func TestLaneParamErrors(t *testing.T) {
	g := graph.Complete(4)
	outs := []*Result{new(Result)}
	if err := RunLane(g, 0, Options{Batch: 2, SettleParam: 1.5}, LaneGeom, []uint64{1}, nil, outs); err == nil {
		t.Fatal("geom q > 1 accepted")
	}
	if err := RunLane(g, 0, Options{Batch: 2, SettleParam: -1}, LaneThreshold, []uint64{1}, nil, outs); err == nil {
		t.Fatal("negative threshold accepted")
	}
}
