// Sparse occupancy backend: when a run disperses far fewer particles than
// the graph has vertices, the dense epoch-stamped occupancy array (and the
// capacity count array) would dominate memory at O(n) even though at most
// k vertices ever hold a particle. On million-vertex implicit graphs that
// array is the only O(n) state left in the whole pipeline, so Scratch
// switches to a graph.OccupancyTable, an open-addressing hash table sized
// O(k), whenever the run is large and sparse enough (see beginRun). The
// dense backend is untouched for small or dense runs, where it is both
// faster and smaller.
//
// Both backends produce bit-identical RNG streams. A sparse settlement
// walk goes to the kernel's fused sparse walk where the kernel has one
// (sparseWalker), and otherwise to the explicit Step loop of Scratch.walk;
// both draw exactly what the dense fused WalkUntilVacant draws.

package core

import (
	"dispersion/internal/graph"
	"dispersion/internal/rng"
)

const (
	// sparseMinN is the smallest graph size eligible for the sparse
	// occupancy backend. Below it a dense byte array is at most 1 MiB and
	// always wins.
	sparseMinN = 1 << 20
	// sparseFactor is the density cutoff: a run goes sparse only when
	// sparseFactor·k <= n. The table takes 32 to 64 bytes a particle
	// (8-byte slots at a load factor between 1/8 and 1/4), O(k) against
	// the dense array's O(n).
	sparseFactor = 8
)

// sparseOccupancy reports whether a run of k particles on n vertices uses
// the sparse backend. k may exceed n for capacity processes; those runs
// are dense by construction.
func sparseOccupancy(n, k int) bool {
	return n >= sparseMinN && k <= n/sparseFactor
}

// sparseWalker is a kernel with a fused settlement walk over the sparse
// occupancy table: WalkUntilVacant with the occ[v] == epoch test replaced
// by a probe of t for graph.OccupancyFull, drawing exactly what
// WalkUntilVacant draws. The implicit torus kernel has one; every other
// kernel walks sparse runs through the Step loop of Scratch.walk.
type sparseWalker interface {
	WalkUntilVacantSparse(v int32, lazy bool, t *graph.OccupancyTable, budget int64, r *rng.Source) (int32, int64)
}

// walk runs one stretch of a particle's settlement walk from v: first the
// owed forced moves, blind to occupancy, then moves while the particle
// stands on an occupied vertex. It also stops once it has taken budget
// steps, whatever the vertex, and returns the final vertex and the steps
// taken. A non-nil traj records the walk: every vertex reached is
// appended to *traj.
//
// The loop is the explicit Step loop the Kernel contract defines
// WalkUntilVacant to equal draw for draw, and it pays the forced moves of
// every walk. Once they are paid, an unrecorded walk hands over to the
// kernel's fused walk: WalkUntilVacant on the dense backend, or
// WalkUntilVacantSparse on the sparse one where the kernel has it.
// (sequential calls WalkUntilVacant directly when a dense walk owes
// nothing.) Recorded walks, and sparse walks on kernels without a fused
// sparse walk, stay in the loop, which keeps the occupancy probe and the
// lazy coin inline: calling Scratch.occupied and step per move costs the
// sparse walk measurably.
func (s *Scratch) walk(kern graph.Kernel, v int32, owed int64, lazy bool, budget int64, r *rng.Source, traj *[]int32) (int32, int64) {
	var fused sparseWalker
	if s.sparse && traj == nil {
		fused, _ = kern.(sparseWalker)
	}
	var steps int64
	for {
		if steps >= owed {
			switch {
			case fused != nil:
				end, walked := fused.WalkUntilVacantSparse(v, lazy, &s.table, budget-steps, r)
				return end, steps + walked
			case s.sparse:
				if !s.table.Full(v) {
					return v, steps
				}
			case traj == nil:
				end, walked := kern.WalkUntilVacant(v, lazy, s.occ, s.epoch, budget-steps, r)
				return end, steps + walked
			case s.occ[v] != s.epoch:
				return v, steps
			}
		}
		if !lazy || !r.Bool() {
			v = kern.Step(v, r)
		}
		steps++
		if traj != nil {
			*traj = append(*traj, v)
		}
		if steps >= budget {
			return v, steps
		}
	}
}
