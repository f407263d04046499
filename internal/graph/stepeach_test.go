package graph

import (
	"testing"

	"dispersion/internal/rng"
)

// stepEachCases returns a graph of every kernel kind, with the cases that
// move without a draw (K_2, path endpoints, star leaves, Q_1 and the
// weighted K_2), a torus with a side-1 dimension and a hypercube past the
// 16-bit select.
func stepEachCases(t *testing.T) []struct {
	kind string
	g    Graph
} {
	t.Helper()
	must := func(g Graph, err error) Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	wk2 := must(WeightedComplete(2, 1.5))
	return []struct {
		kind string
		g    Graph
	}{
		{"complete", Complete(9)},
		{"complete", Complete(2)},
		{"cycle", Cycle(11)},
		{"path", Path(6)},
		{"path", ImplicitPath(2)},
		{"hypercube", ImplicitHypercube(1)},
		{"hypercube", ImplicitHypercube(5)},
		{"hypercube", ImplicitHypercube(18)},
		{"regular", Grid([]int{4, 4}, true)},
		{"csr", Star(9)},
		{"csr", CliqueWithHair(8)},
		{"walias", wk2},
		{"walias", must(WeightedCycle(7, 3))},
		{"wcomplete", must(WeightedComplete(6, 1))},
		{"wcomplete", must(WeightedComplete(9, -0.5))},
		{"torus", must(ImplicitTorus([]int{5, 7}))},
		{"torus", must(ImplicitTorus([]int{6, 1, 4}))},
		{"circulant", must(ImplicitCirculant(8, []int{1, 4}))},
		{"circulant", must(ImplicitCirculant(12, []int{2, 3}))},
		{"rregular", must(ImplicitRandomRegular(10, 4, 5))},
	}
}

// TestStepEachMatchesStepLoop runs chained rounds of StepEach and StepLane
// against the Step loops their contracts define, lazy and not, on a
// shuffled index list that leaves some slots out. StepEach draws from one
// source; each StepLane slot draws from its own, whose twin drives the
// slot's Step loop. After every round it compares the positions and the
// next draw of every source with the loops'.
func TestStepEachMatchesStepLoop(t *testing.T) {
	kinds := map[string]bool{}
	for _, c := range stepEachCases(t) {
		kern := c.g.Kernel()
		if kern.Kind() != c.kind {
			t.Fatalf("%s: kernel %q, want %q", c.g.Name(), kern.Kind(), c.kind)
		}
		kinds[c.kind] = true
		for _, lazy := range []bool{false, true} {
			const slots = 40
			setup := rng.New(uint64(c.g.N()))
			pos := make([]int32, slots)
			for j := range pos {
				pos[j] = int32(setup.Intn(c.g.N()))
			}
			// Start some slots on the degree-one vertices these families
			// have: path endpoints, star leaves, K_2 and Q_1.
			pos[0], pos[1] = 0, int32(c.g.N()-1)
			want := append([]int32(nil), pos...)
			lanePos := append([]int32(nil), pos...)
			laneWant := append([]int32(nil), pos...)
			a, b := rng.New(7), rng.New(7)
			var lane rng.LaneSource
			lane.Resize(slots)
			ref := make([]rng.Source, slots)
			for j := range ref {
				lane.Seed(j, uint64(j)+7)
				ref[j].Seed(uint64(j) + 7)
			}
			for round := 0; round < 60; round++ {
				idx := make([]int32, 0, slots)
				for _, j := range setup.Perm(slots) {
					if j%5 != round%5 {
						idx = append(idx, int32(j))
					}
				}
				kern.StepEach(pos, idx, lazy, a)
				kern.StepLane(lanePos, idx, lazy, &lane)
				for _, j := range idx {
					if !lazy || !b.Bool() {
						want[j] = kern.Step(want[j], b)
					}
					if !lazy || !ref[j].Bool() {
						laneWant[j] = kern.Step(laneWant[j], &ref[j])
					}
				}
				for j := range pos {
					if pos[j] != want[j] {
						t.Fatalf("%s lazy=%v round %d: StepEach slot %d at %d, Step loop at %d",
							c.g.Name(), lazy, round, j, pos[j], want[j])
					}
					if lanePos[j] != laneWant[j] {
						t.Fatalf("%s lazy=%v round %d: StepLane slot %d at %d, Step loop at %d",
							c.g.Name(), lazy, round, j, lanePos[j], laneWant[j])
					}
					if x, y := lane.Uint64(j), ref[j].Uint64(); x != y {
						t.Fatalf("%s lazy=%v round %d: slot %d next draw %#x after StepLane, %#x after the Step loop",
							c.g.Name(), lazy, round, j, x, y)
					}
				}
				if x, y := a.Uint64(), b.Uint64(); x != y {
					t.Fatalf("%s lazy=%v round %d: next draw %#x after StepEach, %#x after the Step loop",
						c.g.Name(), lazy, round, x, y)
				}
			}
		}
	}
	for _, kind := range []string{"complete", "cycle", "path", "hypercube", "regular", "csr",
		"walias", "wcomplete", "torus", "circulant", "rregular"} {
		if !kinds[kind] {
			t.Errorf("no case covers kernel kind %q", kind)
		}
	}
}
