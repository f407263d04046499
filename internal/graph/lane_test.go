package graph

import (
	"fmt"
	"math"
	"testing"

	"dispersion/internal/rng"
)

// laneFamilies returns one instance of every kernel kind exercising
// StepLane, paired with a structural twin for adjacency checks.
func laneFamilies(t *testing.T) map[string]Graph {
	t.Helper()
	torus, err := ImplicitTorus([]int{4, 5})
	if err != nil {
		t.Fatal(err)
	}
	circ, err := ImplicitCirculant(12, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	rreg, err := ImplicitRandomRegular(20, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	wcomp, err := WeightedComplete(8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	wcyc, err := WeightedCycle(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Graph{
		"complete-8":  Complete(8),
		"cycle-9":     Cycle(9),
		"path-7":      Path(7),
		"hypercube-4": Hypercube(4),
		"star-6":      Star(6),
		"torus-4x5":   torus,
		"circ-12":     circ,
		"rreg-20-4":   rreg,
		"wcomplete-8": wcomp,
		"wcycle-9":    wcyc,
	}
}

// rowWeights returns the edge weights of v's neighbour list, aligned with
// g.csr.Neighbors(v), from the formula of the family g's name gives: the
// law the weighted kernel tests draw against. The graph keeps no weights.
func rowWeights(g *WeightedCSR, v int) []float64 {
	var n int
	var p float64
	var weight func(u int) float64
	if _, err := fmt.Sscanf(g.Name(), "wcomplete-%d-a%g", &n, &p); err == nil {
		// WeightedComplete: ((u+1)(v+1))^alpha.
		weight = func(u int) float64 { return math.Pow(float64(min(u, v)+1)*float64(max(u, v)+1), p) }
	} else if _, err := fmt.Sscanf(g.Name(), "wcycle-%d-b%g", &n, &p); err == nil {
		// WeightedCycle: edge {x, x+1 mod n} weighs bias when x is odd.
		weight = func(u int) float64 {
			x := v
			if v == (u+1)%n {
				x = u
			}
			if x%2 == 1 {
				return p
			}
			return 1
		}
	} else {
		panic("rowWeights: no weight formula for " + g.Name())
	}
	ns := g.csr.Neighbors(v)
	ws := make([]float64, len(ns))
	for i, u := range ns {
		ws[i] = weight(int(u))
	}
	return ws
}

// TestStepLaneMovesToNeighbors drives every kernel's StepLane across a
// full lane for many rounds and checks each slot only ever moves along an
// edge (or, lazily, stays put).
func TestStepLaneMovesToNeighbors(t *testing.T) {
	for name, g := range laneFamilies(t) {
		kern := g.Kernel()
		for _, lazy := range []bool{false, true} {
			var lane rng.LaneSource
			const width = 32
			lane.Resize(width)
			src := rng.New(99)
			pos := make([]int32, width)
			idx := make([]int32, width)
			for j := 0; j < width; j++ {
				lane.Seed(j, src.Uint64())
				pos[j] = int32(src.Intn(g.N()))
				idx[j] = int32(j)
			}
			prev := make([]int32, width)
			for round := 0; round < 100; round++ {
				copy(prev, pos)
				kern.StepLane(pos, idx[:width-round%3], lazy, &lane)
				for _, j := range idx[:width-round%3] {
					if pos[j] == prev[j] {
						if !lazy && g.Degree(int(prev[j])) > 0 &&
							!g.HasEdge(int(prev[j]), int(pos[j])) {
							t.Fatalf("%s lazy=%v: slot %d stayed at %d without laziness", name, lazy, j, prev[j])
						}
						continue
					}
					if !g.HasEdge(int(prev[j]), int(pos[j])) {
						t.Fatalf("%s lazy=%v: slot %d moved %d -> %d (not an edge)", name, lazy, j, prev[j], pos[j])
					}
				}
			}
		}
	}
}

// TestStepLaneDegreeOneNoDraw pins the draw law at degree one: moving a
// slot along its only edge must consume no variates (matching scalar
// Step), so identically seeded lanes stay in lockstep.
func TestStepLaneDegreeOneNoDraw(t *testing.T) {
	for name, g := range map[string]Graph{"path-2": Path(2), "complete-2": Complete(2), "star-3-leaf": Star(3)} {
		var a, b rng.LaneSource
		a.Resize(2)
		b.Resize(2)
		for j := 0; j < 2; j++ {
			a.Seed(j, uint64(j)*31+5)
			b.Seed(j, uint64(j)*31+5)
		}
		// Start both slots on degree-1 vertices (vertex 1 in every family
		// here is a leaf or K_2 endpoint).
		pos := []int32{1, 1}
		idx := []int32{0, 1}
		g.Kernel().StepLane(pos, idx, false, &a)
		for j := 0; j < 2; j++ {
			if g.Degree(int(pos[j])) < 1 {
				t.Fatalf("%s: slot %d landed on isolated vertex %d", name, j, pos[j])
			}
			if got, want := a.Uint64(j), b.Uint64(j); got != want {
				t.Fatalf("%s: slot %d consumed a draw on a degree-1 move", name, j)
			}
		}
	}
}

// chiSquare999 approximates the 99.9th percentile of the chi-square
// distribution with k degrees of freedom (Wilson–Hilferty).
func chiSquare999(k int) float64 {
	fk := float64(k)
	z := 3.0902 // 99.9th percentile of the standard normal
	x := 1 - 2/(9*fk) + z*math.Sqrt(2/(9*fk))
	return fk * x * x * x
}

// TestStepLaneDistribution chi-squares every kernel's StepLane against
// its step law from a fixed vertex: uniform over neighbours for the
// unweighted kernels, the normalised weight law for the alias kernels.
func TestStepLaneDistribution(t *testing.T) {
	for name, g := range laneFamilies(t) {
		// Pick the max-degree vertex so the test covers real branching.
		v := 0
		for u := 1; u < g.N(); u++ {
			if g.Degree(u) > g.Degree(v) {
				v = u
			}
		}
		d := g.Degree(v)
		if d < 2 {
			t.Fatalf("%s: max degree %d", name, d)
		}
		want := make(map[int32]float64, d)
		if w, ok := g.(*WeightedCSR); ok {
			ws := rowWeights(w, v)
			var sum float64
			for _, x := range ws {
				sum += x
			}
			for i, u := range w.csr.Neighbors(v) {
				want[u] = ws[i] / sum
			}
		} else {
			for u := 0; u < g.N(); u++ {
				if g.HasEdge(v, u) {
					want[int32(u)] = 1 / float64(d)
				}
			}
		}
		var lane rng.LaneSource
		lane.Resize(1)
		lane.Seed(0, 2718)
		pos := []int32{int32(v)}
		idx := []int32{0}
		draws := 4096 * d
		counts := make(map[int32]int, d)
		kern := g.Kernel()
		for i := 0; i < draws; i++ {
			pos[0] = int32(v)
			kern.StepLane(pos, idx, false, &lane)
			counts[pos[0]]++
		}
		var chi2 float64
		for u, p := range want {
			exp := p * float64(draws)
			diff := float64(counts[u]) - exp
			chi2 += diff * diff / exp
			delete(counts, u)
		}
		if len(counts) != 0 {
			t.Fatalf("%s: draws landed outside the neighbour set: %v", name, counts)
		}
		if lim := chiSquare999(d - 1); chi2 > lim {
			t.Fatalf("%s: chi-square %.2f > %.2f over %d dof", name, chi2, lim, d-1)
		}
	}
}

// TestWeightedAliasMassExact reconstructs each vertex's transition law
// from its alias table and checks it equals the normalised weights up to
// float rounding — the table-level form of the alias correctness claim.
func TestWeightedAliasMassExact(t *testing.T) {
	wcomp, err := WeightedComplete(16, 1.25)
	if err != nil {
		t.Fatal(err)
	}
	wcyc, err := WeightedCycle(11, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*WeightedCSR{wcomp, wcyc} {
		for v := 0; v < g.N(); v++ {
			ns := g.csr.Neighbors(v)
			ws := rowWeights(g, v)
			d := len(ns)
			var sum float64
			for _, w := range ws {
				sum += w
			}
			mass := make(map[int32]float64, d)
			off := int(g.csr.offsets[v])
			for i := 0; i < d; i++ {
				p := g.prob[off+i]
				if p < 0 || p > 1 {
					t.Fatalf("%s v=%d slot %d: prob %v outside [0,1]", g.Name(), v, i, p)
				}
				mass[ns[i]] += p / float64(d)
				if p < 1 {
					mass[g.alt[off+i]] += (1 - p) / float64(d)
				}
			}
			for i, u := range ns {
				if got, want := mass[u], ws[i]/sum; math.Abs(got-want) > 1e-9 {
					t.Fatalf("%s: P(%d->%d) = %v from alias table, want %v", g.Name(), v, u, got, want)
				}
			}
		}
	}
}

// TestWeightedScalarStepLaw chi-squares the scalar weighted Step against
// the normalised weight law — the satellite acceptance pin for alias
// draws, on the scalar path (TestStepLaneDistribution covers the lane).
func TestWeightedScalarStepLaw(t *testing.T) {
	g, err := WeightedComplete(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	const v = 0
	d := g.Degree(v)
	ws := rowWeights(g, v)
	var sum float64
	for _, w := range ws {
		sum += w
	}
	src := rng.New(5)
	draws := 8192 * d
	counts := make(map[int32]int, d)
	for i := 0; i < draws; i++ {
		counts[g.Kernel().Step(v, src)]++
	}
	var chi2 float64
	for i, u := range g.csr.Neighbors(v) {
		exp := ws[i] / sum * float64(draws)
		diff := float64(counts[u]) - exp
		chi2 += diff * diff / exp
	}
	if lim := chiSquare999(d - 1); chi2 > lim {
		t.Fatalf("weighted Step chi-square %.2f > %.2f over %d dof", chi2, lim, d-1)
	}
}

// TestWeightedStepLaneMatchesLaneLaws pins the hand-inlined lane loop of
// the alias kernel to the bounded-draw methods of each slot's Source,
// draw for draw.
func TestWeightedStepLaneMatchesLaneLaws(t *testing.T) {
	g, err := WeightedComplete(9, -0.75)
	if err != nil {
		t.Fatal(err)
	}
	for _, lazy := range []bool{false, true} {
		var lane, ref rng.LaneSource
		const width = 16
		lane.Resize(width)
		ref.Resize(width)
		pos := make([]int32, width)
		want := make([]int32, width)
		idx := make([]int32, width)
		for j := 0; j < width; j++ {
			lane.Seed(j, uint64(j)*1009+3)
			ref.Seed(j, uint64(j)*1009+3)
			pos[j] = int32(j % g.N())
			want[j] = pos[j]
			idx[j] = int32(j)
		}
		for round := 0; round < 200; round++ {
			g.Kernel().StepLane(pos, idx, lazy, &lane)
			for j := 0; j < width; j++ {
				if lazy && ref.Uint64(j)&1 == 1 { // the lane's lazy coin: one draw's low bit
					continue
				}
				v := want[j]
				off := g.csr.offsets[v]
				d := int(g.csr.offsets[v+1] - off)
				i := off + int32(ref.Slot(j).Intn(d))
				if ref.Slot(j).Float64() < g.prob[i] {
					want[j] = g.csr.adj[i]
				} else {
					want[j] = g.alt[i]
				}
			}
			for j := 0; j < width; j++ {
				if pos[j] != want[j] {
					t.Fatalf("lazy=%v round %d slot %d: StepLane at %d, reference at %d", lazy, round, j, pos[j], want[j])
				}
			}
		}
	}
}

// TestWeightedStructure checks the structural facade of WeightedCSR and
// the Materialize special case.
func TestWeightedStructure(t *testing.T) {
	g, err := WeightedCycle(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 10 || g.csr.M() != 10 {
		t.Fatalf("N=%d M=%d, want 10 10", g.N(), g.csr.M())
	}
	if !g.IsConnected() {
		t.Fatal("weighted cycle reported disconnected")
	}
	if g.Kernel().Kind() != "walias" {
		t.Fatalf("kernel kind %q, want walias", g.Kernel().Kind())
	}
	if !g.HasEdge(0, 1) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge wrong on weighted cycle")
	}
	// Edge {1,2} has odd endpoint 1 -> weight 4; {0,1} has even 0 -> 1.
	for i, u := range g.csr.Neighbors(1) {
		want := 1.0
		if u == 2 {
			want = 4.0
		}
		if rowWeights(g, 1)[i] != want {
			t.Fatalf("weight of edge {1,%d} = %v, want %v", u, rowWeights(g, 1)[i], want)
		}
	}
	csr, err := Materialize(g)
	if err != nil {
		t.Fatal(err)
	}
	if csr != g.CSR() {
		t.Fatal("Materialize did not return the structural twin")
	}
	if csr.Kernel().Kind() == "walias" {
		t.Fatal("structural twin kept the weighted kernel")
	}
}

// TestWeightedBuilderErrors checks weight validation and that structural
// errors still surface through the weighted builder.
func TestWeightedBuilderErrors(t *testing.T) {
	for name, add := range map[string]func(b *WeightedBuilder){
		"zero weight":     func(b *WeightedBuilder) { b.AddEdge(0, 1, 0) },
		"negative weight": func(b *WeightedBuilder) { b.AddEdge(0, 1, -2) },
		"nan weight":      func(b *WeightedBuilder) { b.AddEdge(0, 1, math.NaN()) },
		"inf weight":      func(b *WeightedBuilder) { b.AddEdge(0, 1, math.Inf(1)) },
		"self loop":       func(b *WeightedBuilder) { b.AddEdge(1, 1, 1) },
		"duplicate":       func(b *WeightedBuilder) { b.AddEdge(0, 1, 1); b.AddEdge(1, 0, 2) },
	} {
		b := NewWeightedBuilder("bad", 3)
		add(b)
		if _, err := b.Build(); err == nil {
			t.Fatalf("%s: Build succeeded", name)
		}
	}
	if _, err := WeightedComplete(1, 0); err == nil {
		t.Fatal("WeightedComplete(1, 0) succeeded")
	}
	if _, err := WeightedComplete(4, math.NaN()); err == nil {
		t.Fatal("WeightedComplete with NaN alpha succeeded")
	}
	if _, err := WeightedCycle(2, 1); err == nil {
		t.Fatal("WeightedCycle(2, 1) succeeded")
	}
	if _, err := WeightedCycle(5, 0); err == nil {
		t.Fatal("WeightedCycle with zero bias succeeded")
	}
}

// TestWeightedCompleteAlphaZeroUniform pins the alpha = 0 degenerate
// case: every transition probability collapses to the uniform law.
func TestWeightedCompleteAlphaZeroUniform(t *testing.T) {
	g, err := WeightedComplete(7, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		for _, w := range rowWeights(g, v) {
			if w != 1 {
				t.Fatalf("alpha=0 weight %v at vertex %d", w, v)
			}
		}
	}
}
