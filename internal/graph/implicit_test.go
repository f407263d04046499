package graph

import (
	"sort"
	"testing"

	"dispersion/internal/rng"
)

// implicitCases pairs every implicit family with an independently built
// CSR twin of the same labelled graph. Twins for torus come from Grid
// (separate edge-enumeration code), cycles/paths/completes/hypercubes
// from their CSR constructors, and circulants/random-regulars from
// Materialize checked against the family definition.
func implicitCases(t *testing.T) []struct {
	name string
	g    *Implicit
	twin *CSR
} {
	t.Helper()
	mk := func(name string, g *Implicit, twin *CSR) struct {
		name string
		g    *Implicit
		twin *CSR
	} {
		return struct {
			name string
			g    *Implicit
			twin *CSR
		}{name, g, twin}
	}
	torus2, err := ImplicitTorus([]int{7, 5})
	if err != nil {
		t.Fatal(err)
	}
	torus3, err := ImplicitTorus([]int{4, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	torus1, err := ImplicitTorus([]int{1, 9, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Side-3 dimensions (every coordinate is a boundary but the middle
	// one), a side-1 dimension between effective ones, and four
	// effective dimensions exercise the torus move table's class rows.
	torus4, err := ImplicitTorus([]int{3, 1, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	torus3s, err := ImplicitTorus([]int{3, 3, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	circ, err := ImplicitCirculant(12, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	circHalf, err := ImplicitCirculant(10, []int{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	rreg, err := implicitSimpleRandomRegular(t, 30, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rreg == nil {
		t.Fatal("no collision-free random-regular seed found at n=30, d=4")
	}
	cases := []struct {
		name string
		g    *Implicit
		twin *CSR
	}{
		mk("complete-9", ImplicitComplete(9), Complete(9)),
		mk("complete-2", ImplicitComplete(2), Complete(2)),
		mk("cycle-3", ImplicitCycle(3), Cycle(3)),
		mk("cycle-11", ImplicitCycle(11), Cycle(11)),
		mk("path-2", ImplicitPath(2), Path(2)),
		mk("path-17", ImplicitPath(17), Path(17)),
		mk("hypercube-1", ImplicitHypercube(1), Hypercube(1)),
		mk("hypercube-6", ImplicitHypercube(6), Hypercube(6)),
		mk("torus-7x5", torus2, Grid([]int{7, 5}, true)),
		mk("torus-4x3x5", torus3, Grid([]int{4, 3, 5}, true)),
		mk("torus-1x9x1", torus1, Grid([]int{1, 9, 1}, true)),
		mk("torus-3x1x4x5", torus4, Grid([]int{3, 1, 4, 5}, true)),
		mk("torus-3x3x3x3", torus3s, Grid([]int{3, 3, 3, 3}, true)),
	}
	for _, ig := range []*Implicit{circ, circHalf, rreg} {
		twin, err := Materialize(ig)
		if err != nil {
			t.Fatalf("%s: materialize: %v", ig.Name(), err)
		}
		cases = append(cases, mk(ig.Name(), ig, twin))
	}
	return cases
}

// implicitSimpleRandomRegular searches seeds for a cycle union with no
// edge collisions, so the CSR twin exists (multigraph samples cannot be
// materialized); collisions at these sizes are rare, so the search is
// short.
func implicitSimpleRandomRegular(t *testing.T, n, d int) (*Implicit, error) {
	t.Helper()
	for seed := uint64(0); seed < 50; seed++ {
		g, err := ImplicitRandomRegular(n, d, seed)
		if err != nil {
			return nil, err
		}
		if _, err := Materialize(g); err == nil {
			return g, nil
		}
	}
	return nil, nil
}

// Every implicit family's closed form must reproduce its CSR twin's
// sorted adjacency index by index — the anchor property that makes
// implicit streams bit-identical to CSR streams.
func TestImplicitMatchesTwinAdjacency(t *testing.T) {
	for _, tc := range implicitCases(t) {
		if tc.g.N() != tc.twin.N() {
			t.Fatalf("%s: n = %d, twin %d", tc.name, tc.g.N(), tc.twin.N())
		}
		cf := tc.g.Kernel().(closedForm)
		if !matchesClosedForm(tc.twin, cf) {
			t.Fatalf("%s: implicit closed form disagrees with CSR twin adjacency", tc.name)
		}
		for v := 0; v < tc.g.N(); v++ {
			if tc.g.Degree(v) != tc.twin.Degree(v) {
				t.Fatalf("%s: Degree(%d) = %d, twin %d", tc.name, v, tc.g.Degree(v), tc.twin.Degree(v))
			}
		}
	}
}

// Implicit connectivity is computed analytically and must agree with the
// twin's BFS answer; circulants with gcd > 1 are the disconnected case.
func TestImplicitConnectivity(t *testing.T) {
	for _, tc := range implicitCases(t) {
		if tc.g.IsConnected() != tc.twin.IsConnected() {
			t.Fatalf("%s: IsConnected = %v, twin %v", tc.name, tc.g.IsConnected(), tc.twin.IsConnected())
		}
	}
	disc, err := ImplicitCirculant(12, []int{3, 6})
	if err != nil {
		t.Fatal(err)
	}
	if disc.IsConnected() {
		t.Fatal("circulant-12+3+6 (gcd 3) must be disconnected")
	}
	twin, err := Materialize(disc)
	if err != nil {
		t.Fatal(err)
	}
	if twin.IsConnected() {
		t.Fatal("twin of disconnected circulant reports connected")
	}
}

// HasEdge must agree with the twin on every pair.
func TestImplicitHasEdge(t *testing.T) {
	for _, tc := range implicitCases(t) {
		for u := 0; u < tc.g.N(); u++ {
			for v := 0; v < tc.g.N(); v++ {
				if got, want := tc.g.HasEdge(u, v), tc.twin.HasEdge(u, v); got != want {
					t.Fatalf("%s: HasEdge(%d,%d) = %v, twin %v", tc.name, u, v, got, want)
				}
			}
		}
	}
}

// Implicit kernel steps must be bit-identical — same vertices, same draw
// counts — to the twin's generic CSR walk.
func TestImplicitStepBitIdentity(t *testing.T) {
	for _, tc := range implicitCases(t) {
		if !tc.g.IsConnected() {
			continue
		}
		kern := tc.g.Kernel()
		rk, rg := rng.New(42), rng.New(42)
		vk, vg := int32(0), int32(0)
		for step := 0; step < 5000; step++ {
			vk = kern.Step(vk, rk)
			vg = genericStep(tc.twin, vg, rg)
			if vk != vg {
				t.Fatalf("%s: step %d diverged: implicit %d, twin %d", tc.name, step, vk, vg)
			}
			if rk.Uint64() != rg.Uint64() {
				t.Fatalf("%s: step %d consumed different draw counts", tc.name, step)
			}
		}
	}
}

// Implicit WalkUntilVacant must match the explicit step loop on the twin
// across occupancy patterns, lazy and simple, including draw counts.
func TestImplicitWalkUntilVacantBitIdentity(t *testing.T) {
	for _, tc := range implicitCases(t) {
		kern := tc.g.Kernel()
		n := tc.g.N()
		for _, lazy := range []bool{false, true} {
			for trial := uint64(0); trial < 20; trial++ {
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

				rw, rs := rng.New(trial), rng.New(trial)
				gotV, gotSteps := kern.WalkUntilVacant(start, lazy, occ, epoch, 1<<40, rw)
				v, steps := start, int64(0)
				for occ[v] == epoch {
					if !lazy || !rs.Bool() {
						v = genericStep(tc.twin, v, rs)
					}
					steps++
				}
				if gotV != v || gotSteps != steps {
					t.Fatalf("%s (lazy=%v, trial %d): walk = (%d, %d), want (%d, %d)",
						tc.name, lazy, trial, gotV, gotSteps, v, steps)
				}
				if rw.Uint64() != rs.Uint64() {
					t.Fatalf("%s (lazy=%v, trial %d): different draw counts", tc.name, lazy, trial)
				}
			}
		}
	}
}

// The random occupancy above ends most walks within a few steps. Here
// every vertex but one is occupied, so each walk runs long: on the torus
// it wraps every dimension and crosses every class row many times while
// it tracks its coordinates, and on Q_17 it flips bits of both 16-bit
// halves. Each input must stay in lockstep with its CSR twin's step loop
// for at least 10^5 steps, lazy and not.
func TestImplicitLongWalkBitIdentity(t *testing.T) {
	sides := []int{3, 1, 9, 1, 4, 5}
	torus, err := ImplicitTorus(sides)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		g    *Implicit
		twin *CSR
	}{
		{torus, Grid(sides, true)},
		{ImplicitHypercube(12), Hypercube(12)},
		{ImplicitHypercube(17), Hypercube(17)},
	} {
		kern, n := tc.g.Kernel(), tc.g.N()
		const epoch, minSteps = 1, 100000
		occ := make([]uint8, n)
		for _, lazy := range []bool{false, true} {
			pick := rng.New(7)
			rw, rs := rng.New(8), rng.New(8)
			var total int64
			for walk := 0; total < minSteps; walk++ {
				for v := range occ {
					occ[v] = epoch
				}
				occ[pick.Intn(n)] = 0
				start := int32(pick.Intn(n))
				gotV, gotSteps := kern.WalkUntilVacant(start, lazy, occ, epoch, 1<<40, rw)
				v, steps := start, int64(0)
				for occ[v] == epoch {
					if !lazy || !rs.Bool() {
						v = genericStep(tc.twin, v, rs)
					}
					steps++
				}
				if gotV != v || gotSteps != steps {
					t.Fatalf("%s lazy=%v walk %d: (%d, %d), twin (%d, %d)", tc.g.Name(), lazy, walk, gotV, gotSteps, v, steps)
				}
				if rw.Uint64() != rs.Uint64() {
					t.Fatalf("%s lazy=%v walk %d: different draw counts", tc.g.Name(), lazy, walk)
				}
				total += steps
			}
		}
	}
}

// Tori too large for a CSR twin: at random vertices the kernel's sorted
// neighbours must match a reference that finds coordinates by integer
// division and sorts the 2D candidates, checking the multiply-based
// division at large sides and at n near the int32 limit.
func TestImplicitTorusLargeSides(t *testing.T) {
	for _, sides := range [][]int{{1024, 1024}, {3, 46337, 5}, {46337, 46337}, {7, 1, 1 << 20, 255}} {
		g, err := ImplicitTorus(sides)
		if err != nil {
			t.Fatal(err)
		}
		cf := g.Kernel().(closedForm)
		r := rng.New(uint64(len(sides)))
		for trial := 0; trial < 2000; trial++ {
			v := int32(r.Intn(g.N()))
			var want []int32
			stride := 1
			for d := len(sides) - 1; d >= 0; d-- {
				side := sides[d]
				if side >= 3 {
					c := int(v) / stride % side
					up, down := int(v)+stride, int(v)-stride
					if c == side-1 {
						up -= side * stride
					}
					if c == 0 {
						down += side * stride
					}
					want = append(want, int32(up), int32(down))
				}
				stride *= side
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			for i, u := range want {
				if got := cf.nth(v, int32(i)); got != u {
					t.Fatalf("torus %v: nth(%d, %d) = %d, want %d", sides, v, i, got, u)
				}
			}
		}
	}
}

// The budget contract holds for implicit kernels too.
func TestImplicitWalkBudget(t *testing.T) {
	for _, tc := range implicitCases(t) {
		kern := tc.g.Kernel()
		occ := make([]uint8, tc.g.N())
		for v := range occ {
			occ[v] = 1
		}
		for _, budget := range []int64{1, 2, 7} {
			r := rng.New(9)
			if _, steps := kern.WalkUntilVacant(0, false, occ, 1, budget, r); steps != budget {
				t.Fatalf("%s: budget %d walk took %d steps", tc.name, budget, steps)
			}
		}
	}
}

// The Feistel PRP must be a bijection of [0, n) with a working inverse,
// including awkward domain sizes (powers of two, one above, one below).
func TestFeistelPermutation(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 16, 17, 63, 64, 65, 1000} {
		for seed := uint64(0); seed < 4; seed++ {
			f := newFeistel(n, seed)
			seen := make([]bool, n)
			for x := 0; x < n; x++ {
				y := f.apply(uint64(x))
				if y >= uint64(n) {
					t.Fatalf("n=%d seed=%d: apply(%d) = %d out of range", n, seed, x, y)
				}
				if seen[y] {
					t.Fatalf("n=%d seed=%d: apply not injective at %d", n, seed, x)
				}
				seen[y] = true
				if back := f.invert(y); back != uint64(x) {
					t.Fatalf("n=%d seed=%d: invert(apply(%d)) = %d", n, seed, x, back)
				}
			}
		}
	}
}

// Seeded random-regular graphs are d-regular unions of Hamiltonian
// cycles: every vertex must have exactly d incident half-edges and the
// graph must be connected by construction (each cycle alone spans it).
func TestImplicitRandomRegularStructure(t *testing.T) {
	for _, d := range []int{2, 4, 6} {
		g, err := ImplicitRandomRegular(40, d, 11)
		if err != nil {
			t.Fatal(err)
		}
		if !g.IsConnected() {
			t.Fatalf("d=%d: not connected", d)
		}
		for v := 0; v < g.N(); v++ {
			if g.Degree(v) != d {
				t.Fatalf("d=%d: Degree(%d) = %d", d, v, g.Degree(v))
			}
		}
		// Neighbour relation is symmetric even with multigraph collisions:
		// u appears in v's list as often as v appears in u's.
		cf := g.Kernel().(closedForm)
		count := func(a, b int32) int {
			c := 0
			for i := int32(0); i < cf.degree(a); i++ {
				if cf.nth(a, i) == b {
					c++
				}
			}
			return c
		}
		for v := int32(0); v < int32(g.N()); v++ {
			for i := int32(0); i < cf.degree(v); i++ {
				u := cf.nth(v, i)
				if u == v {
					t.Fatalf("d=%d: self-loop at %d", d, v)
				}
				if count(v, u) != count(u, v) {
					t.Fatalf("d=%d: asymmetric multiplicity between %d and %d", d, v, u)
				}
			}
		}
	}
}

// Constructor validation: the implicit families reject the shapes the CSR
// constructors reject, plus their own buffer limits.
func TestImplicitValidation(t *testing.T) {
	if _, err := ImplicitTorus([]int{4, 2}); err == nil {
		t.Error("torus side 2 accepted")
	}
	if _, err := ImplicitTorus([]int{1, 1}); err == nil {
		t.Error("torus with no effective side accepted")
	}
	if _, err := ImplicitTorus([]int{3, 3, 3, 3, 3, 3, 3, 3, 3}); err == nil {
		t.Error("torus beyond MaxTorusDims accepted")
	}
	if _, err := ImplicitCirculant(10, []int{0}); err == nil {
		t.Error("circulant offset 0 accepted")
	}
	if _, err := ImplicitCirculant(10, []int{6}); err == nil {
		t.Error("circulant offset > n/2 accepted")
	}
	if _, err := ImplicitCirculant(10, []int{2, 2}); err == nil {
		t.Error("duplicate circulant offset accepted")
	}
	if _, err := ImplicitRandomRegular(10, 3, 1); err == nil {
		t.Error("odd degree accepted")
	}
	if _, err := ImplicitRandomRegular(10, 34, 1); err == nil {
		t.Error("degree beyond maxRRegularDegree accepted")
	}
	if _, err := Materialize(Complete(4)); err != nil {
		t.Errorf("Materialize of CSR: %v", err)
	}
}
