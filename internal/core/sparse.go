// Sparse occupancy backend: when a run disperses far fewer particles than
// the graph has vertices, the dense epoch-stamped occupancy array (and the
// capacity count array) would dominate memory at O(n) even though at most
// k vertices ever hold a particle. On million-vertex implicit graphs that
// array is the only O(n) state left in the whole pipeline, so Scratch
// switches to an open-addressing hash table sized O(k) whenever the run is
// large and sparse enough (see beginRun). The dense backend is untouched
// for small or dense runs, where it is both faster and smaller.
//
// Both backends produce bit-identical RNG streams: the sparse settlement
// walk is the explicit Step loop (Scratch.walk) that the Kernel contract
// defines WalkUntilVacant to be draw-for-draw equivalent to.

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
	// sparseFactor·k <= n, so the table (two int32 words per slot at load
	// factor <= 1/4, i.e. <= 32 bytes per particle) stays well under the
	// n bytes the dense array would pin.
	sparseFactor = 8
	// sparseFull flags a table entry whose vertex is at capacity (or, for
	// the unit-capacity processes, simply occupied). It lives above the 24
	// bits that per-vertex counts can reach under maxCapacity.
	sparseFull = int32(1) << 30
)

// sparseOccupancy reports whether a run of k particles on n vertices uses
// the sparse backend. k may exceed n for capacity processes; those runs
// are dense by construction.
func sparseOccupancy(n, k int) bool {
	return n >= sparseMinN && k <= n/sparseFactor
}

// sparseTable is an open-addressing hash table from vertex to a packed
// occupancy word (sparseFull flag | settled count), with linear probing.
// It is sized to at least 4x the maximum number of distinct keys, so the
// load factor stays <= 1/4 and probes terminate quickly; keys are never
// deleted within a run, and reset re-empties the whole table.
type sparseTable struct {
	keys []int32 // -1 marks an empty slot
	vals []int32
	mask uint32
}

// reset prepares the table for a run settling at most k distinct vertices.
func (t *sparseTable) reset(k int) {
	size := 16
	for size < 4*k {
		size <<= 1
	}
	if cap(t.keys) < size {
		t.keys = make([]int32, size)
		t.vals = make([]int32, size)
	}
	t.keys = t.keys[:size]
	t.vals = t.vals[:size]
	for i := range t.keys {
		t.keys[i] = -1
	}
	t.mask = uint32(size - 1)
}

// slot returns the index holding v, or the empty slot where v would go.
func (t *sparseTable) slot(v int32) uint32 {
	// Final avalanche rounds of a 32-bit mixer: vertex labels are often
	// consecutive, and this spreads them across the table.
	h := uint32(v)
	h ^= h >> 16
	h *= 0x7feb352d
	h ^= h >> 15
	h *= 0x846ca68b
	h ^= h >> 16
	i := h & t.mask
	for t.keys[i] != -1 && t.keys[i] != v {
		i = (i + 1) & t.mask
	}
	return i
}

// get returns v's packed occupancy word, zero if absent.
func (t *sparseTable) get(v int32) int32 {
	i := t.slot(v)
	if t.keys[i] == -1 {
		return 0
	}
	return t.vals[i]
}

// set stores v's packed occupancy word, inserting the key if needed.
func (t *sparseTable) set(v int32, val int32) {
	i := t.slot(v)
	t.keys[i] = v
	t.vals[i] = val
}

// walk runs one stretch of a particle's settlement walk from v: first the
// owed forced moves, blind to occupancy, then moves while the particle
// stands on an occupied vertex. It also stops once it has taken budget
// steps, whatever the vertex, and returns the final vertex and the steps
// taken. A non-nil traj records the walk: every vertex reached is
// appended to *traj.
//
// This is the explicit Step loop the Kernel contract defines
// WalkUntilVacant to equal draw for draw, and it serves sparse occupancy,
// recorded walks and forced moves alike. A dense unrecorded walk hands
// over to the kernel's fused WalkUntilVacant once its forced moves are
// paid (sequential calls the kernel directly when nothing is owed). The loop keeps the occupancy probe and the lazy coin inline:
// calling Scratch.occupied and step per move costs the sparse walk
// measurably.
func (s *Scratch) walk(kern graph.Kernel, v int32, owed int64, lazy bool, budget int64, r *rng.Source, traj *[]int32) (int32, int64) {
	var steps int64
	for {
		if steps >= owed {
			if s.sparse {
				if s.table.get(v)&sparseFull == 0 {
					return v, steps
				}
			} else if traj == nil {
				end, walked := kern.WalkUntilVacant(v, lazy, s.occ, s.epoch, budget-steps, r)
				return end, steps + walked
			} else if s.occ[v] != s.epoch {
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
