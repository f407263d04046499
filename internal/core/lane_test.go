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

// laneOptions enumerates the option sets the lane tests run the standard
// law, the lane's one law, under.
func laneOptions() map[string]Options {
	return map[string]Options{
		"standard":         {},
		"standard-lazy":    {Lazy: true},
		"standard-origins": {RandomOrigins: true},
		"standard-partial": {Particles: 5},
	}
}

// TestLaneBatchInvariance pins the core stream law of the batched mode:
// a trial's result is what the scalar Sequential loop gives a Source
// seeded with the trial's seed, so every batch width yields it, under
// every option set, on closed-form and table-backed kernels alike.
func TestLaneBatchInvariance(t *testing.T) {
	seeds := laneSeeds(24)
	for _, g := range []graph.Graph{graph.Complete(16), graph.Grid([]int{4, 5}, true), graph.CliqueWithHair(9)} {
		for name, opt := range laneOptions() {
			for _, b := range []int{1, 3, 8, 64} {
				opt.Batch = b
				got := runLane(t, g, 0, opt, LaneStandard, seeds)
				for i, seed := range seeds {
					var want Result
					if err := SequentialInto(g, 0, opt, rng.New(seed), nil, &want); err != nil {
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
// alternate between a small and a large graph, so the slot's occupancy
// map regrows and then serves the small graph again. The second run takes
// 254 trials, so the third run's first trial reuses the first run's last
// epoch: a stamp that outlived the second run would collide with it.
// Every run must match a run on a fresh Scratch.
func TestLaneScratchAcrossLayouts(t *testing.T) {
	// The csr kernel, which steps a lane, on 9 and 17 vertices.
	small, large := graph.CliqueWithHair(9), graph.CliqueWithHair(17)
	// A stale stamp on every vertex would walk forever; the budget turns
	// it into a truncated trial.
	opt := Options{Batch: 1, Particles: 7, MaxSteps: 1 << 16}
	s := NewScratch()
	for r, g := range []graph.Graph{small, large, small, large} {
		seeds := laneSeeds(300)
		if r == 1 {
			seeds = seeds[:254]
		}
		want := runLane(t, g, 0, opt, LaneStandard, seeds)
		outs := make([]*Result, len(seeds))
		for k := range outs {
			outs[k] = new(Result)
		}
		if err := RunLane(g, 0, opt, LaneStandard, seeds, s, outs); err != nil {
			t.Fatal(err)
		}
		for k := range outs {
			if !resultsEqual(outs[k], want[k]) {
				t.Fatalf("run %d on %s: trial %d differs from a fresh Scratch's", r, g.Name(), k)
			}
		}
	}
}

// TestLaneResultsCheck validates every option set's batched results against
// the structural run invariants (full occupancy, clock monotonicity,
// dispersion = max steps).
func TestLaneResultsCheck(t *testing.T) {
	seeds := laneSeeds(16)
	g := graph.Grid([]int{3, 4}, true) // the regular kernel, which steps a lane
	for name, opt := range laneOptions() {
		opt.Batch = 8
		for _, res := range runLane(t, g, 0, opt, LaneStandard, seeds) {
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
	// On a 64-vertex torus, dispersing all 64 particles within 50 total
	// steps is impossible, so every trial must truncate.
	for _, res := range runLane(t, g, 0, opt, LaneStandard, seeds) {
		if !res.Truncated {
			t.Fatal("64-vertex torus trial completed under a 50-step budget")
		}
		var sum int64
		for _, s := range res.Steps {
			sum += s
		}
		if sum != res.TotalSteps {
			t.Fatalf("truncated TotalSteps %d != sum of Steps %d", res.TotalSteps, sum)
		}
		if res.TotalSteps < opt.MaxSteps {
			t.Fatalf("truncated below the budget: %d < %d", res.TotalSteps, opt.MaxSteps)
		}
		if unsettled(res) == 0 {
			t.Fatal("truncated run settled everything")
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
// scalar and batched paths. A batched capacity job runs unbatched, so
// LaneWidth, which decides it, is what must reject it.
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
		if _, err := LaneWidth(g, 0, opt, LaneCapacity, 1, 1); err == nil {
			t.Fatalf("%s: batched job accepted", name)
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
		// The other laws pass validation, and their batched jobs run
		// unbatched (TestLaneWidth): the lane runs only the standard law.
		"geom variant":      {Options{Batch: 2}, LaneGeom, seeds, outs, "standard Sequential law"},
		"threshold variant": {Options{Batch: 2}, LaneThreshold, seeds, outs, "standard Sequential law"},
		"capacity variant":  {Options{Batch: 2}, LaneCapacity, seeds, outs, "standard Sequential law"},
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
	// when enough seeds are pending): a slot's map costs a byte a vertex.
	grid := graph.Grid([]int{257, 256}, true) // the regular kernel, n = 65,792
	wide := make([]*Result, 4096)
	for i := range wide {
		wide[i] = new(Result)
	}
	if err := RunLane(grid, 0, Options{Batch: len(wide), Particles: 1}, LaneStandard, laneSeeds(len(wide)), nil, wide); err == nil ||
		!strings.Contains(err.Error(), "occupancy") {
		t.Fatalf("occupancy bound at width %d: err = %v", len(wide), err)
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

// TestLaneParamErrors checks that the lane validates the geom and
// threshold parameters, as LaneWidth does, before it turns those laws
// away.
func TestLaneParamErrors(t *testing.T) {
	g := graph.Complete(4)
	outs := []*Result{new(Result)}
	if err := RunLane(g, 0, Options{Batch: 2, SettleParam: 1.5}, LaneGeom, []uint64{1}, nil, outs); err == nil ||
		!strings.Contains(err.Error(), "settle probability") {
		t.Fatalf("geom q > 1: err = %v", err)
	}
	if err := RunLane(g, 0, Options{Batch: 2, SettleParam: -1}, LaneThreshold, []uint64{1}, nil, outs); err == nil ||
		!strings.Contains(err.Error(), "settle threshold") {
		t.Fatalf("negative threshold: err = %v", err)
	}
}

// TestLaneWidth holds LaneWidth, the engine's one decision about a
// batched job, to its rules: no lane (0) for a law other than the
// standard one, on any kernel, nor on a kernel that computes its
// neighbour; for the standard law on a table-backed kernel the smallest
// of the batch cap, ⌈trials/workers⌉ and the memory bound, which every
// width it returns keeps; 0 when not one slot fits; and the batched
// form's rejections. The memory cases only compute widths, so nothing
// large is allocated.
func TestLaneWidth(t *testing.T) {
	must := func(g graph.Graph, err error) graph.Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	computed := []graph.Graph{
		graph.Complete(12), graph.ImplicitCycle(14), graph.ImplicitPath(9), graph.ImplicitHypercube(4),
		must(graph.ImplicitTorus([]int{4, 3})), must(graph.ImplicitCirculant(13, []int{1, 4})),
		must(graph.ImplicitRandomRegular(14, 4, 3)),
	}
	tables := []graph.Graph{
		graph.CliqueWithHair(9), graph.Grid([]int{4, 4}, true),
		must(graph.WeightedComplete(10, 1)), must(graph.WeightedCycle(7, 3)),
	}
	for _, g := range computed {
		if graph.LaneGathers(g.Kernel()) {
			t.Fatalf("%s: kernel %s steps a lane", g.Name(), g.Kernel().Kind())
		}
	}
	for _, g := range tables {
		if !graph.LaneGathers(g.Kernel()) {
			t.Fatalf("%s: kernel %s steps no lane", g.Name(), g.Kernel().Kind())
		}
	}
	for _, g := range append(computed, tables...) {
		for _, variant := range []LaneVariant{LaneStandard, LaneGeom, LaneThreshold, LaneCapacity} {
			lane := variant == LaneStandard && graph.LaneGathers(g.Kernel())
			if w, err := LaneWidth(g, 0, Options{Batch: 64}, variant, 1000, 2); err != nil || (w != 0) != lane {
				t.Fatalf("%s (%s), variant %d: width %d, err %v; want a lane %v", g.Name(), g.Kernel().Kind(), variant, w, err, lane)
			}
		}
	}

	// grid is a table-backed torus of n = 65,792 vertices (the regular
	// kernel), about 1 MiB of tables.
	grid := graph.Grid([]int{257, 256}, true)
	n := int64(grid.N())
	// bound is the widest block whose slots' occupancy maps on every
	// worker and whose results in the 4·workers blocks awaiting delivery
	// fit together.
	bound := func(n int64, k, workers int) int {
		return int(laneMaxOccBytes / (int64(workers) * (n + 4*(laneTrialBytes+laneParticleBytes*int64(k)))))
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
		{"one trial", graph.Grid([]int{4, 4}, true), Options{Batch: 64}, LaneStandard, 1, 3, 1},
		{"alias kernel", must(graph.WeightedComplete(10, 1)), Options{Batch: 64}, LaneStandard, 1 << 20, 4, 64},
		{"occupancy maps bind", grid, Options{Batch: maxBatch, Particles: 1}, LaneStandard, 1 << 30, 2, bound(n, 1, 2)},
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
		slot := int64(tc.workers) * (int64(tc.g.N()) + 4*(laneTrialBytes+laneParticleBytes*int64(lw.k)))
		if int64(w)*slot > laneMaxOccBytes {
			t.Fatalf("%s: width %d holds %d bytes, over %d", tc.name, w, int64(w)*slot, laneMaxOccBytes)
		}
	}
	// In the cases named for it, the memory bound binds: it is narrower
	// than the cap (maxBatch), which is narrower than the trial share.
	for _, w := range []int{bound(n, 1, 2), bound(n, grid.N(), 2)} {
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
