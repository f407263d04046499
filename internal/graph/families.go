package graph

import "fmt"

// Path returns the path graph P_n on vertices 0..n-1 with edges {i, i+1}.
func Path(n int) *CSR {
	b := NewBuilder(fmt.Sprintf("path-%d", n), n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	// The constructor emits the canonical labelling, so the kernel is known
	// without detectKernel's verification sweep. Degenerate sizes (P_2 =
	// K_2) keep detection, which is O(1) there and preserves the
	// closed-form upgrade.
	if n >= 3 {
		b.hint = func(*CSR) Kernel { return pathKernel{n: int32(n)} }
	}
	return b.MustBuild()
}

// Cycle returns the cycle C_n. It requires n >= 3 to stay simple.
func Cycle(n int) *CSR {
	if n < 3 {
		panic("graph: Cycle requires n >= 3")
	}
	b := NewBuilder(fmt.Sprintf("cycle-%d", n), n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	// Canonical labelling: skip detection. C_3 = K_3 keeps detection so it
	// still gets the complete-graph kernel.
	if n >= 4 {
		b.hint = func(*CSR) Kernel { return cycleKernel{n: int32(n)} }
	}
	return b.MustBuild()
}

// Complete returns the complete graph K_n.
func Complete(n int) *CSR {
	name := fmt.Sprintf("complete-%d", n)
	if n < 2 {
		return NewBuilder(name, n).MustBuild()
	}
	return completeCSR(name, n)
}

// completeCSR writes K_n (n >= 2) row by row in the sorted order Builder
// would produce — row v starts at v·(n−1) and lists every u != v — so it
// needs no edge list, sort, connectivity search or kernel detection.
func completeCSR(name string, n int) *CSR {
	offsets := make([]int32, n+1)
	adj := make([]int32, 0, n*(n-1))
	for v := 0; v < n; v++ {
		offsets[v] = int32(len(adj))
		for u := 0; u < n; u++ {
			if u != v {
				adj = append(adj, int32(u))
			}
		}
	}
	offsets[n] = int32(len(adj))
	return &CSR{name: name, offsets: offsets, adj: adj, kernel: completeKernel{n: int32(n)}, connected: true}
}

// Star returns the star S_n: vertex 0 is the centre joined to 1..n-1.
func Star(n int) *CSR {
	b := NewBuilder(fmt.Sprintf("star-%d", n), n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, i)
	}
	// Stars are irregular for n >= 3 (S_2 = K_2 keeps detection).
	if n >= 3 {
		b.hint = func(g *CSR) Kernel { return csrKernel{g} }
	}
	return b.MustBuild()
}

// Grid returns the d-dimensional grid (box) with the given side lengths,
// indexed in row-major order. With torus set, opposite faces are glued,
// producing the d-dimensional torus the paper uses for d >= 2. Sides of
// length 2 with torus would create parallel edges and are rejected.
func Grid(sides []int, torus bool) *CSR {
	n := 1
	for _, s := range sides {
		if s < 1 {
			panic("graph: Grid sides must be >= 1")
		}
		if torus && s == 2 {
			panic("graph: torus with side 2 would create parallel edges")
		}
		n *= s
	}
	kind := "grid"
	if torus {
		kind = "torus"
	}
	b := NewBuilder(fmt.Sprintf("%s-%dd-%d", kind, len(sides), n), n)
	strides := make([]int, len(sides))
	stride := 1
	for d := len(sides) - 1; d >= 0; d-- {
		strides[d] = stride
		stride *= sides[d]
	}
	coords := make([]int, len(sides))
	for v := 0; v < n; v++ {
		for d := range sides {
			if coords[d]+1 < sides[d] {
				b.AddEdge(v, v+strides[d])
			} else if torus && sides[d] > 2 {
				b.AddEdge(v, v-(sides[d]-1)*strides[d])
			}
		}
		// Advance the mixed-radix coordinate counter.
		for d := len(sides) - 1; d >= 0; d-- {
			coords[d]++
			if coords[d] < sides[d] {
				break
			}
			coords[d] = 0
		}
	}
	if torus {
		// A torus is 2·d'-regular, d' the number of effective (side >= 3)
		// dimensions; sides of length 1 contribute nothing. With exactly
		// one effective dimension the labelling degenerates to the
		// canonical cycle C_n; open grids keep detection (their boundary
		// makes the kernel depend on the exact shape).
		eff, deg := 0, 0
		for _, s := range sides {
			if s >= 3 {
				eff++
				deg += 2
			}
		}
		switch {
		case eff == 1 && n >= 4:
			b.hint = func(*CSR) Kernel { return cycleKernel{n: int32(n)} }
		case eff >= 2:
			b.hint = func(g *CSR) Kernel { return regularKernel{adj: g.adj, deg: int32(deg)} }
		}
	}
	return b.MustBuild()
}

// GridIndex converts coordinates into the row-major vertex index used by
// Grid.
func GridIndex(sides, coords []int) int {
	v := 0
	for d, s := range sides {
		v = v*s + coords[d]
	}
	return v
}

// GridCoords inverts GridIndex.
func GridCoords(sides []int, v int) []int {
	coords := make([]int, len(sides))
	for d := len(sides) - 1; d >= 0; d-- {
		coords[d] = v % sides[d]
		v /= sides[d]
	}
	return coords
}

// Hypercube returns the k-dimensional hypercube on n = 2^k vertices, with
// u ~ v iff u xor v is a power of two.
func Hypercube(k int) *CSR {
	if k < 1 || k > 30 {
		panic("graph: Hypercube requires 1 <= k <= 30")
	}
	n := 1 << k
	b := NewBuilder(fmt.Sprintf("hypercube-%d", n), n)
	for v := 0; v < n; v++ {
		for d := 0; d < k; d++ {
			u := v ^ (1 << d)
			if v < u {
				b.AddEdge(v, u)
			}
		}
	}
	// Same footprint gate as detectKernel (adjacency holds n·k int32s):
	// cache-hostile hypercubes go arithmetic, small ones take the
	// offsets-free regular kernel. Q_1 = K_2 keeps detection.
	if k >= 2 {
		if 4*n*k >= hypercubeClosedFormMinBytes {
			b.hint = func(*CSR) Kernel { return hypercubeKernel{k: int32(k)} }
		} else {
			b.hint = func(g *CSR) Kernel { return regularKernel{adj: g.adj, deg: int32(k)} }
		}
	}
	return b.MustBuild()
}

// CompleteBinaryTree returns the complete binary tree with n = 2^levels - 1
// vertices in heap order: the children of v are 2v+1 and 2v+2, the root is
// vertex 0.
func CompleteBinaryTree(levels int) *CSR {
	if levels < 1 || levels > 30 {
		panic("graph: CompleteBinaryTree requires 1 <= levels <= 30")
	}
	n := 1<<levels - 1
	b := NewBuilder(fmt.Sprintf("bintree-%d", n), n)
	for v := 1; v < n; v++ {
		b.AddEdge(v, (v-1)/2)
	}
	if levels >= 2 {
		b.hint = func(g *CSR) Kernel { return csrKernel{g} }
	}
	return b.MustBuild()
}

// Lollipop returns the lollipop graph of Proposition 5.16: a clique on
// ceil(n/2) vertices {0..k-1} attached by the single edge {k-1, k} to a
// path on the remaining floor(n/2) vertices. Vertex 0 is a generic clique
// vertex (a valid origin per the proposition); the far end of the path is
// vertex n-1.
func Lollipop(n int) *CSR {
	if n < 4 {
		panic("graph: Lollipop requires n >= 4")
	}
	k := (n + 1) / 2
	b := NewBuilder(fmt.Sprintf("lollipop-%d", n), n)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			b.AddEdge(i, j)
		}
	}
	for i := k - 1; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	// Lollipop(4) degenerates to P_4 and keeps detection for the path
	// kernel upgrade; every larger lollipop is irregular.
	if n >= 5 {
		b.hint = func(g *CSR) Kernel { return csrKernel{g} }
	}
	return b.MustBuild()
}

// LollipopPathMid returns the vertex half way down the lollipop's path,
// the target w in the proof of Proposition 5.16.
func LollipopPathMid(n int) int {
	k := (n + 1) / 2
	return k - 1 + (n-k+1)/2
}

// CliqueWithHair returns G1 of Proposition 2.1: the complete graph on
// n-1 vertices {0..n-2} with an extra "hair tip" vertex n-1 attached by a
// single edge to vertex 0. The proposition's origin is vertex 0.
func CliqueWithHair(n int) *CSR {
	if n < 3 {
		panic("graph: CliqueWithHair requires n >= 3")
	}
	b := NewBuilder(fmt.Sprintf("clique+hair-%d", n), n)
	for i := 0; i < n-1; i++ {
		for j := i + 1; j < n-1; j++ {
			b.AddEdge(i, j)
		}
	}
	b.AddEdge(0, n-1)
	b.hint = func(g *CSR) Kernel { return csrKernel{g} }
	return b.MustBuild()
}

// HairTip returns the pendant vertex of CliqueWithHair and
// CliqueWithHairOnPimple.
func HairTip(n int) int { return n - 1 }

// CliqueWithHairOnPimple returns G2 of Proposition 2.1: a clique on n-2
// vertices {0..n-3}, a "pimple" vertex v = n-2 adjacent to h-1 clique
// vertices, and the hair tip v* = n-1 attached to v by a single edge. The
// proposition chooses h = n/log n and starts the process at v.
func CliqueWithHairOnPimple(n, h int) *CSR {
	if n < 5 || h < 2 || h > n-2 {
		panic("graph: CliqueWithHairOnPimple requires n >= 5 and 2 <= h <= n-2")
	}
	b := NewBuilder(fmt.Sprintf("clique+pimple-%d-h%d", n, h), n)
	for i := 0; i < n-2; i++ {
		for j := i + 1; j < n-2; j++ {
			b.AddEdge(i, j)
		}
	}
	v := n - 2
	for i := 0; i < h-1; i++ {
		b.AddEdge(v, i)
	}
	b.AddEdge(v, n-1)
	b.hint = func(g *CSR) Kernel { return csrKernel{g} }
	return b.MustBuild()
}

// PimpleVertex returns the pimple vertex v of CliqueWithHairOnPimple, the
// origin used in Proposition 2.1.
func PimpleVertex(n int) int { return n - 2 }

// BinaryTreeWithPath returns the counterexample tree of Proposition 3.8: a
// complete binary tree on 2^levels - 1 vertices with a path of pathLen
// extra vertices attached to the root. Tree vertices keep heap order
// (root 0); path vertices are 2^levels-1 .. 2^levels-1+pathLen-1, with the
// far endpoint last.
func BinaryTreeWithPath(levels, pathLen int) *CSR {
	if levels < 1 || pathLen < 1 {
		panic("graph: BinaryTreeWithPath requires levels >= 1 and pathLen >= 1")
	}
	t := 1<<levels - 1
	n := t + pathLen
	b := NewBuilder(fmt.Sprintf("bintree+path-%d+%d", t, pathLen), n)
	for v := 1; v < t; v++ {
		b.AddEdge(v, (v-1)/2)
	}
	b.AddEdge(0, t)
	for i := t; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	// levels == 1 degenerates to a pure path and keeps detection.
	if levels >= 2 {
		b.hint = func(g *CSR) Kernel { return csrKernel{g} }
	}
	return b.MustBuild()
}
