package graph

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"dispersion/internal/rng"
)

// checkWCompleteKernel holds g's weightedCompleteKernel to the generic
// alias kernel on the same tables: the same vertices and the same draws,
// for Step, the fused walk and StepLane.
func checkWCompleteKernel(t *testing.T, name string, g *WeightedCSR) {
	t.Helper()
	kern, ok := g.Kernel().(weightedCompleteKernel)
	if !ok {
		t.Fatalf("%s: kernel %q, want wcomplete", name, g.Kernel().Kind())
	}
	ref := weightedKernel{g: g}
	n := g.N()

	rk, rr := rng.New(uint64(n)), rng.New(uint64(n))
	vk, vr := int32(0), int32(0)
	for step := 0; step < 20000; step++ {
		vk, vr = kern.Step(vk, rk), ref.Step(vr, rr)
		if vk != vr {
			t.Fatalf("%s: Step %d at %d, generic at %d", name, step, vk, vr)
		}
	}
	if rk.Uint64() != rr.Uint64() {
		t.Fatalf("%s: Step consumed a different draw count", name)
	}

	// Two K_n walks that part meet again at the next step unless it draws
	// one of the two vertices, so a walk's final vertex hides most wrong
	// steps: chained one-step walks on a full graph compare every step.
	const epoch = 5
	occ := make([]uint8, n)
	for v := range occ {
		occ[v] = epoch
	}
	for _, lazy := range []bool{false, true} {
		rk, rr := rng.New(3), rng.New(3)
		vk, vr := int32(0), int32(0)
		for step := 0; step < 20000; step++ {
			vk, _ = kern.WalkUntilVacant(vk, lazy, occ, epoch, 1, rk)
			vr, _ = ref.WalkUntilVacant(vr, lazy, occ, epoch, 1, rr)
			if vk != vr {
				t.Fatalf("%s (lazy=%v): one-step walk %d at %d, generic at %d", name, lazy, step, vk, vr)
			}
		}
		if rk.Uint64() != rr.Uint64() {
			t.Fatalf("%s (lazy=%v): one-step walks consumed a different draw count", name, lazy)
		}
	}

	occGen := rng.New(7)
	for _, lazy := range []bool{false, true} {
		for _, budget := range []int64{7, 1 << 16} {
			for trial := uint64(0); trial < 9; trial++ {
				// Every third trial fills every vertex, so the walk runs
				// its whole budget; the others leave one vacancy, or
				// about a tenth of the vertices.
				for v := range occ {
					occ[v] = epoch
					if trial%3 == 2 && occGen.Intn(10) == 0 {
						occ[v] = 0
					}
				}
				if trial%3 != 0 {
					occ[occGen.Intn(n)] = 0
				}
				start := int32(occGen.Intn(n))
				rk, rr := rng.New(trial), rng.New(trial)
				gotV, gotSteps := kern.WalkUntilVacant(start, lazy, occ, epoch, budget, rk)
				wantV, wantSteps := ref.WalkUntilVacant(start, lazy, occ, epoch, budget, rr)
				if gotV != wantV || gotSteps != wantSteps {
					t.Fatalf("%s (lazy=%v, budget %d, trial %d): walk (%d, %d), generic (%d, %d)",
						name, lazy, budget, trial, gotV, gotSteps, wantV, wantSteps)
				}
				if rk.Uint64() != rr.Uint64() {
					t.Fatalf("%s (lazy=%v, budget %d, trial %d): walk consumed a different draw count",
						name, lazy, budget, trial)
				}
			}
		}
	}

	// A 150-slot lane crosses the 64-slot chunk; on a 100-slot lane a
	// shuffled, non-contiguous subset of the slots moves.
	all := make([]int32, 150)
	for j := range all {
		all[j] = int32(j)
	}
	var some []int32
	for _, j := range rng.New(11).Perm(100)[:37] {
		some = append(some, int32(j))
	}
	for _, lane := range []struct {
		width int
		idx   []int32
	}{{150, all}, {100, some}} {
		for _, lazy := range []bool{false, true} {
			var lk, lr rng.LaneSource
			lk.Resize(lane.width)
			lr.Resize(lane.width)
			pk := make([]int32, lane.width)
			pr := make([]int32, lane.width)
			for j := range pk {
				lk.Seed(j, uint64(j)*31+1)
				lr.Seed(j, uint64(j)*31+1)
				pk[j] = int32(j % n)
				pr[j] = pk[j]
			}
			for round := 0; round < 40; round++ {
				kern.StepLane(pk, lane.idx, lazy, &lk)
				ref.StepLane(pr, lane.idx, lazy, &lr)
				if !reflect.DeepEqual(pk, pr) {
					t.Fatalf("%s (width %d, lazy=%v): round %d positions %v, generic %v",
						name, lane.width, lazy, round, pk, pr)
				}
			}
			for j := 0; j < lane.width; j++ {
				if lk.Uint64(j) != lr.Uint64(j) {
					t.Fatalf("%s (width %d, lazy=%v): slot %d consumed a different draw count",
						name, lane.width, lazy, j)
				}
			}
		}
	}
}

// The closed-form weighted clique kernel draws exactly what the generic
// alias kernel draws, at every size and exponent.
func TestWCompleteKernelMatchesGeneric(t *testing.T) {
	for _, n := range []int{3, 4, 17, 300} {
		for _, alpha := range []float64{-1.5, 0, 0.5, 1, 3} {
			g, err := WeightedComplete(n, alpha)
			if err != nil {
				t.Fatal(err)
			}
			checkWCompleteKernel(t, g.Name(), g)
		}
	}
}

// Selection is structural: a K_n built edge by edge with arbitrary
// weights gets the kernel, and keeps it through the text format; K_2 and
// a weighted cycle keep the generic kernel.
func TestWCompleteKernelSelection(t *testing.T) {
	for _, n := range []int{3, 4, 17} {
		wr := rng.New(uint64(n))
		b := NewWeightedBuilder(fmt.Sprintf("hand-k%d", n), n)
		for v := n - 1; v >= 0; v-- { // out of order, both endpoint orders
			for u := 0; u < v; u++ {
				if (u+v)%2 == 0 {
					b.AddEdge(v, u, 0.01+10*wr.Float64())
				} else {
					b.AddEdge(u, v, 0.01+10*wr.Float64())
				}
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		checkWCompleteKernel(t, g.Name(), g)
	}
	for _, alpha := range []float64{-1, 0, 2} {
		g, err := WeightedComplete(2, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if got := g.Kernel().Kind(); got != "walias" {
			t.Errorf("%s: kernel %q, want walias", g.Name(), got)
		}
	}
	for _, n := range []int{3, 4, 9} {
		g, err := WeightedCycle(n, 2)
		if err != nil {
			t.Fatal(err)
		}
		// C_3 is K_3 structurally, so it takes the closed form.
		want := "walias"
		if n == 3 {
			want = "wcomplete"
		}
		if got := g.Kernel().Kind(); got != want {
			t.Errorf("%s: kernel %q, want %q", g.Name(), got, want)
		}
	}
}

// builderComplete is K_n through Builder, every edge listed and sorted:
// the reference for Complete's row-by-row writer.
func builderComplete(n int) *CSR {
	b := NewBuilder(fmt.Sprintf("complete-%d", n), n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(i, j)
		}
	}
	if n >= 2 {
		b.hint = func(*CSR) Kernel { return completeKernel{n: int32(n)} }
	}
	return b.MustBuild()
}

// builderWeightedComplete is the weighted K_n through WeightedBuilder:
// the reference for WeightedComplete's row-by-row writer.
func builderWeightedComplete(n int, alpha float64) (*WeightedCSR, error) {
	b := NewWeightedBuilder(fmt.Sprintf("wcomplete-%d-a%g", n, alpha), n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v, math.Pow(float64(u+1)*float64(v+1), alpha))
		}
	}
	return b.Build()
}

func sameCSR(t *testing.T, got, want *CSR) {
	t.Helper()
	if got.Name() != want.Name() || !reflect.DeepEqual(got.offsets, want.offsets) ||
		!reflect.DeepEqual(got.adj, want.adj) || got.connected != want.connected ||
		got.Kernel().Kind() != want.Kernel().Kind() {
		t.Fatalf("%s: built graph differs from the Builder's %s (kernel %q against %q)",
			got.Name(), want.Name(), got.Kernel().Kind(), want.Kernel().Kind())
	}
}

func TestCompleteMatchesBuilder(t *testing.T) {
	for n := 1; n <= 39; n++ {
		sameCSR(t, Complete(n), builderComplete(n))
	}
}

func TestWeightedCompleteMatchesBuilder(t *testing.T) {
	for _, n := range []int{2, 3, 7, 64, 300} {
		for _, alpha := range []float64{-2, -1, 0, 0.5, 1, 1.7} {
			got, err := WeightedComplete(n, alpha)
			if err != nil {
				t.Fatal(err)
			}
			want, err := builderWeightedComplete(n, alpha)
			if err != nil {
				t.Fatal(err)
			}
			sameCSR(t, got.csr, want.csr)
			if !reflect.DeepEqual(got.prob, want.prob) || !reflect.DeepEqual(got.alt, want.alt) ||
				got.Kernel().Kind() != want.Kernel().Kind() {
				t.Fatalf("%s: alias tables differ from the Builder's", got.Name())
			}
		}
	}
	// Extreme exponents overflow or underflow some weights: the first bad
	// edge in (u, v) order fails both builds with the same error.
	for _, alpha := range []float64{64, -64, 400, -400} {
		got, gotErr := WeightedComplete(8, alpha)
		want, wantErr := builderWeightedComplete(8, alpha)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("alpha %g: error %v, Builder's %v", alpha, gotErr, wantErr)
		}
		if wantErr == nil && (!reflect.DeepEqual(got.prob, want.prob) || !reflect.DeepEqual(got.alt, want.alt)) {
			t.Fatalf("alpha %g: alias tables differ from the Builder's", alpha)
		}
	}
}
