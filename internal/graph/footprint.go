package graph

import (
	"math"
	"unsafe"
)

// The resident-size model of the backends. Footprint measures a built
// graph; the *Bytes functions give the same figure from a family's
// parameters alone, so a caller can size a graph before building it
// (graphspec.Spec.Cost). Both count the backing arrays a graph keeps —
// adjacency, offsets, alias tables and kernel tables — and neither counts
// the name label or the fixed-size struct headers. A weighted graph's
// per-slot weights are transient: Build drops them once its alias tables
// exist.

// Footprint returns the bytes of g's backing arrays. It is 0 for the
// closed-form implicit families, whose kernels are pure arithmetic.
func Footprint(g Graph) int64 {
	switch g := g.(type) {
	case *CSR:
		return int64(cap(g.offsets))*4 + int64(cap(g.adj))*4
	case *WeightedCSR:
		return Footprint(g.csr) + int64(cap(g.prob))*8 + int64(cap(g.alt))*4
	case *Implicit:
		switch k := g.kernel.(type) {
		case torusKernel:
			return int64(cap(k.dims))*int64(unsafe.Sizeof(torusDim{})) +
				int64(cap(k.moves))*int64(unsafe.Sizeof(torusMove{}))
		case circulantKernel:
			return int64(cap(k.offs)) * 4
		case rregKernel:
			return int64(cap(k.perms)) * int64(unsafe.Sizeof(feistel{}))
		}
	}
	return 0
}

// CSRBytes returns the footprint of a CSR graph with n vertices and m
// undirected edges: n+1 int32 offsets and 2m int32 adjacency entries. It
// saturates at math.MaxInt64.
func CSRBytes(n, m int64) int64 { return satBytes(4*(n+1), 8, m) }

// WeightedCSRBytes returns the footprint of a WeightedCSR with n
// vertices and m edges: its CSR structure plus a float64 alias
// probability and an int32 alias vertex per adjacency slot. It saturates
// at math.MaxInt64.
func WeightedCSRBytes(n, m int64) int64 { return satBytes(4*(n+1), 8+2*(8+4), m) }

// ImplicitTorusBytes returns the footprint of ImplicitTorus with eff
// effective (side >= 3) dimensions: the move table and the per-dimension
// records, or nothing when eff < 2 and the torus is a cycle.
func ImplicitTorusBytes(eff int) int64 {
	if eff < 2 {
		return 0
	}
	rows := int64(1)
	for range eff {
		rows *= 3
	}
	return int64(eff)*int64(unsafe.Sizeof(torusDim{})) +
		rows*int64(2*eff)*int64(unsafe.Sizeof(torusMove{}))
}

// ImplicitCirculantBytes returns the footprint of ImplicitCirculant with
// the given number of offsets.
func ImplicitCirculantBytes(offsets int) int64 { return int64(offsets) * 4 }

// ImplicitRandomRegularBytes returns the footprint of
// ImplicitRandomRegular of degree d: one Feistel permutation per
// Hamiltonian cycle.
func ImplicitRandomRegularBytes(d int) int64 {
	return int64(d/2) * int64(unsafe.Sizeof(feistel{}))
}

// satBytes returns base + per·count, saturating at math.MaxInt64.
func satBytes(base, per, count int64) int64 {
	if count > (math.MaxInt64-base)/per {
		return math.MaxInt64
	}
	return base + per*count
}
