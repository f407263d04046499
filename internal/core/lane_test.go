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

// TestLaneBatchInvariance pins the core stream law of the batched mode:
// a trial's result is what the scalar Sequential loop gives a Source
// seeded with the trial's seed, so every batch width yields it, for every
// variant, on closed-form and table-backed kernels alike.
func TestLaneBatchInvariance(t *testing.T) {
	seeds := laneSeeds(24)
	for _, g := range []graph.Graph{graph.Complete(16), graph.Grid([]int{4, 5}, true), graph.CliqueWithHair(9)} {
		for name, tc := range laneVariants() {
			opt := tc.opt
			for _, b := range []int{1, 3, 8, 64} {
				opt.Batch = b
				got := runLane(t, g, 0, opt, tc.variant, seeds)
				for i, seed := range seeds {
					var want Result
					if err := sequential(g, 0, opt, tc.variant, rng.New(seed), nil, &want); err != nil {
						t.Fatal(err)
					}
					if !resultsEqual(got[i], &want) {
						t.Fatalf("%s %s: trial %d at batch %d differs from the scalar loop", g.Name(), name, i, b)
					}
				}
			}
		}
	}
}

// TestLaneScratchAcrossLayouts reuses one Scratch for width-1 lanes that
// lay out different rows: occupancy stamps under the standard law, counts
// under the capacity law. In each sequence the middle run takes 254
// trials, so the last run's first trial reuses the first run's last
// epoch: a stamp or count that outlived the middle run would collide
// with it. Every run must match a run on a fresh Scratch.
func TestLaneScratchAcrossLayouts(t *testing.T) {
	g := graph.CliqueWithHair(9) // the csr kernel, which steps a lane
	// A stale stamp on every vertex would walk forever; the budget turns
	// it into a truncated trial.
	opt := Options{Batch: 1, Particles: 7, MaxSteps: 1 << 16}
	for i, seq := range [][3]LaneVariant{
		{LaneStandard, LaneCapacity, LaneStandard},
		{LaneCapacity, LaneStandard, LaneCapacity},
	} {
		s := NewScratch()
		for r, variant := range seq {
			seeds := laneSeeds(300)
			if r == 1 {
				seeds = seeds[:254]
			}
			want := runLane(t, g, 0, opt, variant, seeds)
			outs := make([]*Result, len(seeds))
			for k := range outs {
				outs[k] = new(Result)
			}
			if err := RunLane(g, 0, opt, variant, seeds, s, outs); err != nil {
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
	g := graph.Grid([]int{3, 4}, true) // the regular kernel, which steps a lane
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
	g := graph.Star(5) // the csr kernel, which steps a lane
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
	g := graph.Grid([]int{8, 8}, true) // the regular kernel, which steps a lane
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
	// On a 64-vertex torus, dispersing all 64 particles within 50 total
	// steps is impossible, so every trial must truncate.
	for _, res := range runLane(t, g, 0, opt, LaneStandard, seeds) {
		if !res.Truncated {
			t.Fatal("standard: 64-vertex torus trial completed under a 50-step budget")
		}
	}
}

// TestLaneCapacityVector runs the batched capacity process under a
// per-vertex capacity vector and checks the aggregate fills each vertex
// to exactly its own capacity.
func TestLaneCapacityVector(t *testing.T) {
	g := graph.Star(4) // the csr kernel, which steps a lane
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
	// A large table-backed graph times a wide lane overflows the occupancy
	// bound before anything is allocated (the width only reaches Batch
	// when enough seeds are pending): a cell costs a byte under the
	// standard law and a four-byte count under the capacity law.
	grid := graph.Grid([]int{257, 256}, true) // the regular kernel, n = 65,792
	for _, c := range []struct {
		variant LaneVariant
		width   int
	}{{LaneStandard, 4096}, {LaneCapacity, 1024}} {
		wide := make([]*Result, c.width)
		for i := range wide {
			wide[i] = new(Result)
		}
		if err := RunLane(grid, 0, Options{Batch: c.width, Particles: 1}, c.variant, laneSeeds(c.width), nil, wide); err == nil ||
			!strings.Contains(err.Error(), "occupancy") {
			t.Fatalf("occupancy bound at width %d: err = %v", c.width, err)
		}
	}
	// A closed-form kernel steps the same lane rows when RunLane is
	// called directly, so the bound applies there too (the engine runs
	// such a job unbatched; see TestLaneWidth).
	big := graph.ImplicitComplete(1 << 24)
	bigSeeds := laneSeeds(64)
	bigOuts := make([]*Result, len(bigSeeds))
	for i := range bigOuts {
		bigOuts[i] = new(Result)
	}
	if err := RunLane(big, 0, Options{Batch: 64, Particles: 1}, LaneStandard, bigSeeds, nil, bigOuts); err == nil ||
		!strings.Contains(err.Error(), "occupancy") {
		t.Fatalf("occupancy bound on a closed-form kernel: err = %v", err)
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

// TestLaneWidth holds LaneWidth, the engine's one decision about a
// batched job, to its rules: no lane (0) on a kernel that computes its
// neighbour; on a table-backed kernel the smallest of the batch cap,
// ⌈trials/workers⌉ and the memory bound, which every width it returns
// keeps; 0 when not one slot fits; and the batched form's rejections.
// The memory cases only compute widths, so nothing large is allocated.
func TestLaneWidth(t *testing.T) {
	must := func(g graph.Graph, err error) graph.Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	for _, g := range []graph.Graph{
		graph.Complete(12), graph.ImplicitCycle(14), graph.ImplicitPath(9), graph.ImplicitHypercube(4),
		must(graph.ImplicitTorus([]int{4, 3})), must(graph.ImplicitCirculant(13, []int{1, 4})),
		must(graph.ImplicitRandomRegular(14, 4, 3)),
	} {
		if graph.LaneGathers(g.Kernel()) {
			t.Fatalf("%s: kernel %s steps a lane", g.Name(), g.Kernel().Kind())
		}
		if w, err := LaneWidth(g, 0, Options{Batch: 64}, LaneStandard, 1000, 2); w != 0 || err != nil {
			t.Fatalf("%s (%s): width %d, err %v; want 0, nil", g.Name(), g.Kernel().Kind(), w, err)
		}
	}

	// grid is a table-backed torus of n = 65,792 vertices (the regular
	// kernel), about 1 MiB of tables.
	grid := graph.Grid([]int{257, 256}, true)
	n := int64(grid.N())
	// bound is the widest block whose lane rows on every worker and whose
	// results in the 4·workers blocks awaiting delivery fit together.
	bound := func(rowBytes int64, k, workers int) int {
		return int(laneMaxOccBytes / (int64(workers) * (rowBytes + 4*(laneTrialBytes+laneParticleBytes*int64(k)))))
	}
	for _, tc := range []struct {
		name            string
		g               graph.Graph
		opt             Options
		variant         LaneVariant
		trials, workers int
		want            int
	}{
		{"cap binds", graph.CliqueWithHair(9), Options{Batch: 8}, LaneStandard, 1000, 2, 8},
		{"trials bind", graph.CliqueWithHair(9), Options{Batch: 64}, LaneStandard, 40, 2, 20},
		{"trials round up", graph.CliqueWithHair(9), Options{Batch: 64}, LaneStandard, 41, 2, 21},
		{"one trial", graph.Grid([]int{4, 4}, true), Options{Batch: 64}, LaneGeom, 1, 3, 1},
		{"alias kernel", must(graph.WeightedComplete(10, 1)), Options{Batch: 64}, LaneCapacity, 1 << 20, 4, 64},
		{"occupancy rows bind", grid, Options{Batch: maxBatch, Particles: 1}, LaneStandard, 1 << 30, 2, bound(n, 1, 2)},
		{"count rows bind", grid, Options{Batch: maxBatch, Particles: 1}, LaneCapacity, 1 << 30, 2, bound(4*n, 1, 2)},
		{"results bind", grid, Options{Batch: maxBatch}, LaneStandard, 1 << 30, 2, bound(n, grid.N(), 2)},
		{"no slot fits", grid, Options{Batch: maxBatch}, LaneStandard, 1 << 30, 64, 0},
	} {
		w, err := LaneWidth(tc.g, 0, tc.opt, tc.variant, tc.trials, tc.workers)
		if err != nil || w != tc.want {
			t.Fatalf("%s: width %d, err %v; want %d", tc.name, w, err, tc.want)
		}
		if w == 0 {
			continue
		}
		// The width keeps the memory bound, whichever term chose it.
		lw, err := tc.opt.law(tc.variant, tc.g.N())
		if err != nil {
			t.Fatal(err)
		}
		slot := int64(tc.workers) * (laneRowBytes(tc.g.N(), tc.variant) + 4*(laneTrialBytes+laneParticleBytes*int64(lw.k)))
		if int64(w)*slot > laneMaxOccBytes {
			t.Fatalf("%s: width %d holds %d bytes, over %d", tc.name, w, int64(w)*slot, laneMaxOccBytes)
		}
	}
	// In the cases named for it, the memory bound binds: it is narrower
	// than the cap (maxBatch), which is narrower than the trial share.
	for _, w := range []int{bound(n, 1, 2), bound(4*n, 1, 2), bound(n, grid.N(), 2)} {
		if w < 1 || w >= maxBatch {
			t.Fatalf("memory bound %d does not bind below the cap %d", w, maxBatch)
		}
	}

	// LaneWidth rejects what the batched form cannot run, with RunLane's
	// errors.
	g := graph.Complete(8)
	for name, tc := range map[string]struct {
		origin  int
		opt     Options
		variant LaneVariant
		wantSub string
	}{
		"no lane":        {0, Options{Batch: 8}, LaneNone, "no batched form"},
		"negative batch": {0, Options{Batch: -3}, LaneStandard, "batch width"},
		"batch too big":  {0, Options{Batch: maxBatch + 1}, LaneStandard, "batch width"},
		"record":         {0, Options{Batch: 8, Record: true}, LaneStandard, "record"},
		"rule":           {0, Options{Batch: 8, Rule: func(int32, int64) bool { return true }}, LaneStandard, "settle rule"},
		"origin":         {99, Options{Batch: 8}, LaneStandard, "origin"},
		"law":            {0, Options{Batch: 8, SettleParam: 1.5}, LaneGeom, "settle probability"},
	} {
		w, err := LaneWidth(g, tc.origin, tc.opt, tc.variant, 4, 1)
		if err == nil || w != 0 || !strings.Contains(err.Error(), tc.wantSub) {
			t.Fatalf("%s: width %d, err %v; want an error containing %q", name, w, err, tc.wantSub)
		}
		outs := []*Result{new(Result)}
		if lerr := RunLane(g, tc.origin, tc.opt, tc.variant, []uint64{1}, nil, outs); lerr == nil || lerr.Error() != err.Error() {
			t.Fatalf("%s: RunLane err %v, LaneWidth err %v", name, lerr, err)
		}
	}
}
