package graph

import (
	"math/bits"
	"testing"

	"dispersion/internal/rng"
)

// kernelCases enumerates one graph per kernel family plus adversarial
// near-misses that must fall back to a slower kernel.
func kernelCases(t *testing.T) []struct {
	name string
	g    *CSR
	kind string
} {
	t.Helper()
	random, err := RandomRegular(64, 5, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	gnp, err := GNP(48, 0.2, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		g    *CSR
		kind string
	}{
		{"complete-2", Complete(2), "complete"},
		{"complete-3", Complete(3), "complete"},
		{"complete-17", Complete(17), "complete"},
		{"complete-64", Complete(64), "complete"},
		{"cycle-4", Cycle(4), "cycle"},
		{"cycle-5", Cycle(5), "cycle"},
		{"cycle-97", Cycle(97), "cycle"},
		{"path-2", Path(2), "complete"}, // P_2 = K_2
		{"path-3", Path(3), "path"},
		{"path-63", Path(63), "path"},
		{"hypercube-1", Hypercube(1), "complete"}, // Q_1 = K_2
		// Small hypercubes stay below the closed-form footprint gate and
		// take the offsets-free regular kernel instead.
		{"hypercube-2", Hypercube(2), "regular"},
		{"hypercube-5", Hypercube(5), "regular"},
		{"hypercube-9", Hypercube(9), "regular"},
		{"torus-2d", Grid([]int{8, 8}, true), "regular"},
		{"torus-3d", Grid([]int{4, 4, 4}, true), "regular"},
		{"random-regular", random, "regular"},
		{"star", Star(33), "csr"},
		{"grid-open", Grid([]int{7, 5}, false), "csr"},
		{"bintree", CompleteBinaryTree(5), "csr"},
		{"lollipop", Lollipop(20), "csr"},
		{"clique+hair", CliqueWithHair(16), "csr"},
		{"gnp", gnp, "csr"},
	}
}

// Kernel selection must pick the intended family for canonical
// constructions and fall back for everything else.
func TestKernelSelection(t *testing.T) {
	for _, tc := range kernelCases(t) {
		if got := tc.g.Kernel().Kind(); got != tc.kind {
			t.Errorf("%s: kernel kind = %q, want %q", tc.name, got, tc.kind)
		}
	}
	// K_3 is also C_3; selection must be deterministic (complete wins) and
	// either form must agree with the CSR list anyway.
	if got := Cycle(3).Kernel().Kind(); got != "complete" {
		t.Errorf("cycle-3 kernel kind = %q, want %q (K_3 = C_3)", got, "complete")
	}
	// Above the footprint gate the hypercube goes arithmetic.
	if got := Hypercube(16).Kernel().Kind(); got != "hypercube" {
		t.Errorf("hypercube-16 kernel kind = %q, want %q", got, "hypercube")
	}
}

// The hypercube closed form must reproduce the sorted CSR adjacency for
// every dimension, whether or not selection would adopt it (small cubes
// are gated to the regular kernel purely for speed). Q_17 is the first
// cube whose high half is nonzero, so it covers both forms of the select.
func TestHypercubeClosedFormAllDimensions(t *testing.T) {
	for k := 1; k <= 17; k++ {
		g := Hypercube(k)
		hk := hypercubeKernel{k: int32(k)}
		if !matchesClosedForm(g, hk) {
			t.Fatalf("Q_%d: closed form disagrees with CSR adjacency", k)
		}
		rk, rg := rng.New(uint64(k)), rng.New(uint64(k))
		vk, vg := int32(0), int32(0)
		for step := 0; step < 2000; step++ {
			vk = hk.Step(vk, rk)
			vg = genericStep(g, vg, rg)
			if vk != vg {
				t.Fatalf("Q_%d: step %d diverged: kernel %d, generic %d", k, step, vk, vg)
			}
		}
		if rk.Uint64() != rg.Uint64() {
			t.Fatalf("Q_%d: kernel consumed a different draw count", k)
		}
	}
}

// loopHypercubeNth is the bit-loop form of the hypercube select: the
// (i+1)-th highest set bit of v by clearing the top bit i times, or the
// (i-s+1)-th lowest clear bit among the k dimensions.
func loopHypercubeNth(k, v, i int32) int32 {
	s := int32(bits.OnesCount32(uint32(v)))
	if i < s {
		x := uint32(v)
		for ; i > 0; i-- {
			x &^= 1 << (bits.Len32(x) - 1)
		}
		return v ^ int32(1<<(bits.Len32(x)-1))
	}
	y := ^uint32(v) & (1<<uint32(k) - 1)
	for i -= s; i > 0; i-- {
		y &= y - 1
	}
	return v ^ int32(y&-y)
}

// Cubes too large for a CSR twin: at random vertices and indices the
// table select must agree with the bit loop, for every k up to 30.
func TestHypercubeNthMatchesBitLoop(t *testing.T) {
	for k := int32(18); k <= 30; k++ {
		hk := hypercubeKernel{k: k}
		r := rng.New(uint64(k))
		for trial := 0; trial < 300000; trial++ {
			v, i := int32(r.Intn(1<<k)), r.Int31n(k)
			if got, want := hk.nth(v, i), loopHypercubeNth(k, v, i); got != want {
				t.Fatalf("Q_%d: nth(%d, %d) = %d, want %d", k, v, i, got, want)
			}
		}
	}
}

// Every closed-form kernel's nth must reproduce the sorted CSR neighbour
// list index by index (the property the ISSUE pins the whole layer to).
func TestClosedFormMatchesCSRList(t *testing.T) {
	for _, tc := range kernelCases(t) {
		cf, ok := tc.g.Kernel().(closedForm)
		if !ok {
			continue
		}
		for v := 0; v < tc.g.N(); v++ {
			if d := cf.degree(int32(v)); d != int32(tc.g.Degree(v)) {
				t.Fatalf("%s: degree(%d) = %d, want %d", tc.name, v, d, tc.g.Degree(v))
			}
			for i := int32(0); i < int32(tc.g.Degree(v)); i++ {
				if got, want := cf.nth(int32(v), i), tc.g.Neighbor(v, i); got != want {
					t.Fatalf("%s: nth(%d,%d) = %d, want CSR neighbour %d",
						tc.name, v, i, got, want)
				}
			}
		}
	}
}

// genericStep is the historical two-lookup step the kernels must be
// draw-for-draw identical to.
func genericStep(g *CSR, v int32, r *rng.Source) int32 {
	d := int32(g.Degree(int(v)))
	if d == 1 {
		return g.Neighbor(int(v), 0)
	}
	return g.Neighbor(int(v), r.Int31n(d))
}

// Kernel walks must be bit-identical to generic CSR walks: same vertices
// visited AND the same number of random draws consumed (verified by
// checking the two sources stay in lockstep).
func TestKernelStepBitIdentity(t *testing.T) {
	for _, tc := range kernelCases(t) {
		kern := tc.g.Kernel()
		gen := tc.g.GenericKernel()
		rk := rng.New(42)
		rg := rng.New(42)
		rr := rng.New(42)
		vk, vg, vr := int32(0), int32(0), int32(0)
		for step := 0; step < 5000; step++ {
			vk = kern.Step(vk, rk)
			vg = gen.Step(vg, rg)
			vr = genericStep(tc.g, vr, rr)
			if vk != vg || vk != vr {
				t.Fatalf("%s: step %d diverged: kernel %d, fused %d, generic %d",
					tc.name, step, vk, vg, vr)
			}
			if a, b, c := rk.Uint64(), rg.Uint64(), rr.Uint64(); a != b || a != c {
				t.Fatalf("%s: step %d consumed different draw counts", tc.name, step)
			}
			// Resync after the probe draw (all three consumed it).
		}
	}
}

// Kernel steps from every start vertex must produce uniform neighbours
// drawn by the same index mapping: compare one step from each vertex under
// identical sources.
func TestKernelStepEveryVertex(t *testing.T) {
	for _, tc := range kernelCases(t) {
		kern := tc.g.Kernel()
		for v := 0; v < tc.g.N(); v++ {
			if tc.g.Degree(v) == 0 {
				continue
			}
			for trial := uint64(0); trial < 16; trial++ {
				rk, rg := rng.New(trial), rng.New(trial)
				got := kern.Step(int32(v), rk)
				want := genericStep(tc.g, int32(v), rg)
				if got != want {
					t.Fatalf("%s: Step(%d) = %d, want %d (seed %d)",
						tc.name, v, got, want, trial)
				}
				if rk.Uint64() != rg.Uint64() {
					t.Fatalf("%s: Step(%d) consumed a different draw count", tc.name, v)
				}
			}
		}
	}
}

// WalkUntilVacant must be draw-for-draw identical to the equivalent
// step-by-step loop, for both the simple and lazy walks, across random
// occupancy patterns.
func TestWalkUntilVacantBitIdentity(t *testing.T) {
	for _, tc := range kernelCases(t) {
		kern := tc.g.Kernel()
		n := tc.g.N()
		for _, lazy := range []bool{false, true} {
			for trial := uint64(0); trial < 20; trial++ {
				// Random occupancy with at least one vacant vertex.
				occGen := rng.New(1000 + trial)
				occ := make([]uint8, n)
				const epoch = 3
				for v := range occ {
					if occGen.Bool() {
						occ[v] = epoch
					}
				}
				occ[occGen.Intn(n)] = 0
				start := int32(occGen.Intn(n))
				if tc.g.Degree(int(start)) == 0 {
					continue
				}

				rw, rs := rng.New(trial), rng.New(trial)
				gotV, gotSteps := kern.WalkUntilVacant(start, lazy, occ, epoch, 1<<40, rw)
				// Reference: the explicit loop over single steps.
				v, steps := start, int64(0)
				for occ[v] == epoch {
					if !lazy || !rs.Bool() {
						v = genericStep(tc.g, v, rs)
					}
					steps++
				}
				if gotV != v || gotSteps != steps {
					t.Fatalf("%s (lazy=%v, trial %d): walk = (%d, %d), want (%d, %d)",
						tc.name, lazy, trial, gotV, gotSteps, v, steps)
				}
				if rw.Uint64() != rs.Uint64() {
					t.Fatalf("%s (lazy=%v, trial %d): walk consumed a different draw count",
						tc.name, lazy, trial)
				}
			}
		}
	}
}

// A walk that exhausts its budget stops after exactly budget steps, even
// when the last step reached a vacant vertex (the MaxSteps truncation
// contract of the processes).
func TestWalkUntilVacantBudget(t *testing.T) {
	for _, tc := range kernelCases(t) {
		kern := tc.g.Kernel()
		n := tc.g.N()
		// Fully occupied: the walk can never settle, so it must stop on
		// the budget exactly.
		occ := make([]uint8, n)
		for v := range occ {
			occ[v] = 1
		}
		for _, budget := range []int64{1, 2, 7} {
			r := rng.New(9)
			_, steps := kern.WalkUntilVacant(0, false, occ, 1, budget, r)
			if steps != budget {
				t.Fatalf("%s: budget %d walk took %d steps", tc.name, budget, steps)
			}
		}
		// A walk starting on a vacant vertex takes zero steps regardless
		// of budget.
		occ[0] = 0
		r := rng.New(9)
		if v, steps := kern.WalkUntilVacant(0, false, occ, 1, 5, r); v != 0 || steps != 0 {
			t.Fatalf("%s: vacant start walked to (%d, %d)", tc.name, v, steps)
		}
	}
}

// Connectivity is cached at Build time and must match a fresh BFS.
func TestConnectedCache(t *testing.T) {
	if !Complete(5).IsConnected() {
		t.Error("K_5 reported disconnected")
	}
	b := NewBuilder("two-edges", 4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.MustBuild()
	if g.IsConnected() {
		t.Error("disjoint edges reported connected")
	}
}
