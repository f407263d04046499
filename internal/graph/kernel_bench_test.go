package graph

import (
	"testing"

	"dispersion/internal/rng"
)

// benchKernel drives steps through the Kernel interface, the dispatch the
// processes use.
func benchKernel(b *testing.B, g *CSR, k Kernel) {
	b.Helper()
	r := rng.New(1)
	v := int32(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v = k.Step(v, r)
	}
	_ = v
}

func BenchmarkKernelComplete4096(b *testing.B) {
	benchKernel(b, Complete(4096), Complete(4096).Kernel())
}
func BenchmarkGenericComplete4096(b *testing.B) {
	g := Complete(4096)
	benchKernel(b, g, g.GenericKernel())
}

func BenchmarkKernelHypercube9(b *testing.B) { g := Hypercube(9); benchKernel(b, g, g.Kernel()) }
func BenchmarkGenericHypercube9(b *testing.B) {
	g := Hypercube(9)
	benchKernel(b, g, g.GenericKernel())
}

func BenchmarkKernelHypercube16(b *testing.B) { g := Hypercube(16); benchKernel(b, g, g.Kernel()) }
func BenchmarkGenericHypercube16(b *testing.B) {
	g := Hypercube(16)
	benchKernel(b, g, g.GenericKernel())
}

func BenchmarkKernelTorus3D(b *testing.B) {
	g := Grid([]int{8, 8, 8}, true)
	benchKernel(b, g, g.Kernel())
}
func BenchmarkGenericTorus3D(b *testing.B) {
	g := Grid([]int{8, 8, 8}, true)
	benchKernel(b, g, g.GenericKernel())
}

// The implicit torus's stateless Step, which sparse-occupancy runs and
// the round-based processes use.
func BenchmarkKernelImplicitTorus3D(b *testing.B) {
	benchKernel(b, nil, mustTorus(b, 8, 8, 8).Kernel())
}

// Direct concrete-type calls, bypassing the interface: measures how much
// of a kernel's cost is dispatch.
func BenchmarkDirectHypercube9(b *testing.B) {
	k := hypercubeKernel{k: 9}
	r := rng.New(1)
	v := int32(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v = k.Step(v, r)
	}
	_ = v
}

func BenchmarkDirectRegularTorus3D(b *testing.B) {
	g := Grid([]int{8, 8, 8}, true)
	k := g.Kernel().(regularKernel)
	r := rng.New(1)
	v := int32(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v = k.Step(v, r)
	}
	_ = v
}

func BenchmarkKernelCycle1024(b *testing.B)  { g := Cycle(1024); benchKernel(b, g, g.Kernel()) }
func BenchmarkGenericCycle1024(b *testing.B) { g := Cycle(1024); benchKernel(b, g, g.GenericKernel()) }

func BenchmarkKernelComplete64(b *testing.B) { g := Complete(64); benchKernel(b, g, g.Kernel()) }
func BenchmarkGenericComplete64(b *testing.B) {
	g := Complete(64)
	benchKernel(b, g, g.GenericKernel())
}

// benchWalk times the fused settlement walk on a fixed occupancy in which
// every vertex but far is occupied: a walk that finds the vacancy restarts
// from vertex 0, and the budget caps the total at b.N steps, so ns/op is
// ns per walk step.
func benchWalk(b *testing.B, k Kernel, n int, far int32) {
	b.Helper()
	occ := make([]uint8, n)
	for v := range occ {
		occ[v] = 1
	}
	occ[far] = 0
	r := rng.New(1)
	b.ResetTimer()
	for steps := int64(0); steps < int64(b.N); {
		_, s := k.WalkUntilVacant(0, false, occ, 1, int64(b.N)-steps, r)
		steps += s
	}
}

func mustTorus(b *testing.B, sides ...int) *Implicit {
	b.Helper()
	g, err := ImplicitTorus(sides)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkWalkTorus8x8x8(b *testing.B) {
	benchWalk(b, mustTorus(b, 8, 8, 8).Kernel(), 512, 4+8*4+64*4)
}

func BenchmarkWalkTorus1024x1024(b *testing.B) {
	benchWalk(b, mustTorus(b, 1024, 1024).Kernel(), 1<<20, 512+1024*512)
}

// BenchmarkWalkTorus1024x1024Sparse is BenchmarkWalkTorus1024x1024 on the
// sparse occupancy backend: the same fixed occupancy, held in an
// OccupancyTable and walked by the torus kernel's fused sparse walk. The
// table holds 2^20-1 keys in 32 MiB, far beyond L2, where a run of 4,096
// particles keeps 128 KiB, so this times the probe at its slowest.
func BenchmarkWalkTorus1024x1024Sparse(b *testing.B) {
	k := mustTorus(b, 1024, 1024).Kernel().(torusKernel)
	n, far := int32(1<<20), int32(512+1024*512)
	var t OccupancyTable
	t.Reset(int(n))
	for v := int32(0); v < n; v++ {
		if v != far {
			t.Set(v, OccupancyFull)
		}
	}
	r := rng.New(1)
	b.ResetTimer()
	for steps := int64(0); steps < int64(b.N); {
		_, s := k.WalkUntilVacantSparse(0, false, &t, int64(b.N)-steps, r)
		steps += s
	}
}

func BenchmarkWalkCycle128(b *testing.B) { benchWalk(b, ImplicitCycle(128).Kernel(), 128, 64) }

func BenchmarkWalkHypercube9(b *testing.B) { benchWalk(b, Hypercube(9).Kernel(), 512, 511) }

// BenchmarkWalkHypercube16 times the closed-form hypercube walk on Q_16
// (n = 65,536), whose 4 MiB CSR adjacency is above the footprint gate.
func BenchmarkWalkHypercube16(b *testing.B) {
	benchWalk(b, ImplicitHypercube(16).Kernel(), 1<<16, 1<<16-1)
}

func BenchmarkWalkComplete512(b *testing.B) {
	benchWalk(b, ImplicitComplete(512).Kernel(), 512, 511)
}

func mustWComplete(b *testing.B, n int, alpha float64) *WeightedCSR {
	b.Helper()
	g, err := WeightedComplete(n, alpha)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkWalkWComplete1024 times the fused alias walk on
// wcomplete:1024,1, whose alias tables and adjacency are 24 MiB.
func BenchmarkWalkWComplete1024(b *testing.B) {
	benchWalk(b, mustWComplete(b, 1024, 1).Kernel(), 1024, 1023)
}

// BenchmarkStepLaneWComplete1024 times StepLane over all 64 slots of a
// B = 64 lane on wcomplete:1024,1, the perfbench lane probe; it reports
// ns per slot-step.
func BenchmarkStepLaneWComplete1024(b *testing.B) {
	k := mustWComplete(b, 1024, 1).Kernel()
	const width = 64
	var lane rng.LaneSource
	lane.Resize(width)
	pos := make([]int32, width)
	idx := make([]int32, width)
	for j := range idx {
		lane.Seed(j, uint64(j)+1)
		idx[j] = int32(j)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.StepLane(pos, idx, false, &lane)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/width, "ns/slot-step")
}

// BenchmarkBuildWComplete1024 times WeightedComplete(1024, 1), the build
// behind graphspec's wcomplete:1024,1.
func BenchmarkBuildWComplete1024(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mustWComplete(b, 1024, 1)
	}
}
