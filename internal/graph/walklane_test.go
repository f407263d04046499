package graph

import (
	"testing"

	"dispersion/internal/rng"
)

// TestWalkLaneMatchesStepLaneLoop holds every LaneWalker to the StepLane
// loop its contract defines. Each case chains calls on one slot of a lane
// (the slot state carries over from call to call), at owed 0, 1 and 7,
// lazy and not, with budgets 1, 7 and 2^16, on an occupancy that is full
// but for one vertex and on one about 10% vacant. A walk that stops on a
// vacant vertex occupies it and vacates another, as a settlement would.
// After every call it compares the vertex, the steps and the slot's next
// draw with the reference loop's on a twin lane.
func TestWalkLaneMatchesStepLaneLoop(t *testing.T) {
	must := func(g Graph, err error) Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	cases := []struct {
		kind  string
		g     Graph
		start int32
	}{
		{"complete", Complete(2), 0},
		{"complete", ImplicitComplete(3), 2},
		{"cycle", ImplicitCycle(3), 0},
		{"cycle", ImplicitCycle(64), 5},
		{"path", ImplicitPath(2), 1},
		{"path", Path(9), 0},
		{"path", ImplicitPath(9), 8},
		{"hypercube", ImplicitHypercube(1), 0},
		{"hypercube", ImplicitHypercube(17), 3},
		{"torus", must(ImplicitTorus([]int{6, 1, 4})), 0},
		{"torus", must(ImplicitTorus([]int{5, 3, 7})), 104},
	}
	kinds := map[string]bool{}
	for _, c := range cases {
		kern := c.g.Kernel()
		if kern.Kind() != c.kind {
			t.Fatalf("%s: kernel %q, want %q", c.g.Name(), kern.Kind(), c.kind)
		}
		walker, ok := kern.(LaneWalker)
		if !ok {
			t.Fatalf("%s: kernel %q has no WalkLane", c.g.Name(), c.kind)
		}
		kinds[c.kind] = true
		n := c.g.N()
		for _, vacant := range []int{1, max(1, n/10)} {
			for _, lazy := range []bool{false, true} {
				for _, owed := range []int64{0, 1, 7} {
					for _, budget := range []int64{1, 7, 1 << 16} {
						checkWalkLane(t, c.g.Name(), kern, walker, n, c.start, vacant, lazy, owed, budget)
					}
				}
			}
		}
	}
	for _, kind := range []string{"complete", "cycle", "path", "hypercube", "torus"} {
		if !kinds[kind] {
			t.Errorf("no case covers kernel kind %q", kind)
		}
	}
}

// checkWalkLane runs one chain of WalkLane calls from start against the
// reference loop; see TestWalkLaneMatchesStepLaneLoop.
func checkWalkLane(t *testing.T, name string, kern Kernel, walker LaneWalker, n int, start int32, vacant int, lazy bool, owed, budget int64) {
	t.Helper()
	const epoch, width, j = 3, 3, 1
	setup := rng.New(uint64(n)*31 + uint64(vacant))
	occ := make([]uint8, n)
	for v := range occ {
		occ[v] = epoch
	}
	for _, v := range setup.Perm(n)[:vacant] {
		occ[v] = 0
	}
	var a, b rng.LaneSource
	a.Resize(width)
	b.Resize(width)
	for s := range width {
		a.Seed(s, uint64(s)+99)
		b.Seed(s, uint64(s)+99)
	}
	pos := make([]int32, width)
	idx := []int32{j}
	v := start
	for call := 0; call < 8; call++ {
		got, steps := walker.WalkLane(v, owed, lazy, occ, epoch, budget, &a, j)
		pos[j] = v
		var want int64
		for want < owed || occ[pos[j]] == epoch {
			kern.StepLane(pos, idx, lazy, &b)
			want++
			if want >= budget {
				break
			}
		}
		if got != pos[j] || steps != want {
			t.Fatalf("%s lazy=%v owed=%d budget=%d vacant=%d call %d: WalkLane from %d ends at %d after %d steps, StepLane loop at %d after %d",
				name, lazy, owed, budget, vacant, call, v, got, steps, pos[j], want)
		}
		if x, y := a.Uint64(j), b.Uint64(j); x != y {
			t.Fatalf("%s lazy=%v owed=%d budget=%d vacant=%d call %d: next draw %#x after WalkLane, %#x after the StepLane loop",
				name, lazy, owed, budget, vacant, call, x, y)
		}
		v = got
		if occ[v] != epoch {
			// Settle: the vacancy moves to a vertex drawn from the setup
			// stream (possibly this one again).
			occ[v] = epoch
			occ[setup.Intn(n)] = 0
		}
	}
}
