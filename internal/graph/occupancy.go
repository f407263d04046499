package graph

// OccupancyFull flags an occupancy word whose vertex is at capacity (or,
// for the unit-capacity processes, simply occupied). It lives above the
// 24 bits that per-vertex settled counts can reach.
const OccupancyFull = int32(1) << 30

// OccupancyTable is the sparse occupancy backend's map from vertex to a
// packed occupancy word (OccupancyFull | settled count): an open-addressing
// hash table with linear probing, sized O(keys) instead of O(n). The
// dispersion core keeps a run's occupancy in it when far fewer particles
// settle than the graph has vertices, and a kernel's fused sparse walk
// probes it directly, so both share this one definition of the format.
//
// Each slot is one uint64, vertex+1 in the high word and the occupancy
// word in the low word, with 0 marking an empty slot, so a probe reads one
// cache line. The home slot is the top bits of one multiply by 2^64/φ
// (Fibonacci hashing), which spreads consecutive and strided vertex labels
// alike. Keys are never deleted; Reset empties the whole table.
//
// The zero value has no slots; Reset sizes it before first use.
type OccupancyTable struct {
	slots []uint64
	mask  uint64 // len(slots) - 1
	shift uint8  // 64 - log2(len(slots))
}

// fibonacci is 2^64/φ rounded to odd: multiplying by it and keeping the
// top bits is Knuth's multiplicative hash.
const fibonacci = 0x9e3779b97f4a7c15

// Reset empties the table and sizes it for at most k distinct vertices:
// at least 4k slots, a power of two, so the load factor stays at most
// 1/4 and probes end quickly.
func (t *OccupancyTable) Reset(k int) {
	size, lg := 16, uint8(4)
	for size < 4*k {
		size <<= 1
		lg++
	}
	if cap(t.slots) < size {
		t.slots = make([]uint64, size)
	} else {
		t.slots = t.slots[:size]
		clear(t.slots)
	}
	t.mask = uint64(size - 1)
	t.shift = 64 - lg
}

// home returns v's first probe position.
func (t *OccupancyTable) home(v int32) uint64 {
	return uint64(uint32(v)) * fibonacci >> t.shift
}

// slot returns the index of the slot holding v, or of the empty slot
// where v would go.
func (t *OccupancyTable) slot(v int32) uint64 {
	key := uint64(uint32(v)+1) << 32
	i := t.home(v)
	for e := t.slots[i]; e != 0 && e&^0xffffffff != key; e = t.slots[i] {
		i = (i + 1) & t.mask
	}
	return i
}

// Get returns v's occupancy word, zero if v was never set.
func (t *OccupancyTable) Get(v int32) int32 {
	return int32(uint32(t.slots[t.slot(v)]))
}

// Set stores v's occupancy word.
func (t *OccupancyTable) Set(v, word int32) {
	t.slots[t.slot(v)] = uint64(uint32(v)+1)<<32 | uint64(uint32(word))
}

// Full reports whether v's occupancy word carries OccupancyFull.
func (t *OccupancyTable) Full(v int32) bool {
	return t.Get(v)&OccupancyFull != 0
}
