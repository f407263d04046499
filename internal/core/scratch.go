package core

import "dispersion/internal/graph"

// Scratch holds the reusable per-worker state of the trial hot path: the
// epoch-stamped occupancy map and the position/priority/active/event
// buffers every process needs. A worker allocates one Scratch and threads
// it through millions of *Into runs; steady-state trials then allocate
// nothing. A Scratch is not safe for concurrent use. Consecutive runs may
// use graphs of different sizes: the dense map's epochs (see occMap) keep
// every earlier run's stamps dead whatever the sizes.
type Scratch struct {
	// dense is the occupancy map of the current run unless sparse is set.
	dense occMap

	// sparse selects the O(particles) occupancy backend for the current
	// run (see sparse.go): dense is left untouched and occupancy lives in
	// table instead. beginRun decides per run, so one Scratch can
	// alternate between a million-vertex sparse run and a small dense one.
	sparse bool
	// forceSparse pins every run to the sparse backend regardless of size;
	// it exists so tests can check dense/sparse bit-identity on graphs
	// small enough to enumerate.
	forceSparse bool
	table       graph.OccupancyTable

	pos    []int32
	active []int32
	prio   []int32
	events eventHeap

	// lane is the SoA state bank of the batched execution mode (see
	// lane.go); it stays empty until the worker's first RunLane call.
	lane laneState
}

// NewScratch returns an empty Scratch; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

// occMap is the dense occupancy map of one run: vertex v is occupied iff
// occ[v] == epoch, so starting a new run is one increment instead of an
// O(n) clear. Byte-wide stamps keep the footprint that of a []bool (the
// occupied check is the second-hottest memory access after the adjacency
// itself), at the price of one real clear every 255 runs when the epoch
// wraps. The scalar loops hold one on their Scratch, and a lane holds one
// per slot.
//
// Every stamp in either array is at most epoch: a run stamps only with
// its own epoch, a grown array starts at stamp 0, which is never live,
// and the wrap clears both arrays to their full capacity. So no stamp of
// an earlier run, on a graph of any size, ever reads as live.
type occMap struct {
	epoch uint8
	occ   []uint8
	// cnt is the occupancy count array of the capacity processes: the
	// high byte of each entry is the epoch that stamped it and the low 24
	// bits the settled-particle count, so counts reset with the same O(1)
	// epoch bump as occ. Entries stamped by an older epoch read as zero.
	cnt []uint32
}

// begin opens a run on n vertices: every vertex starts unoccupied, with
// a count of zero.
func (m *occMap) begin(n int) {
	if cap(m.occ) < n {
		m.occ = make([]uint8, n)
	}
	m.occ = m.occ[:n]
	m.epoch++
	if m.epoch == 0 {
		// Epoch wrapped: stale stamps could collide, so pay one clear of
		// each array's full capacity, not just this run's prefix.
		clear(m.occ[:cap(m.occ)])
		clear(m.cnt[:cap(m.cnt)])
		m.epoch = 1
	}
}

// counts sizes the count array for a capacity-process run on n vertices,
// after begin.
func (m *occMap) counts(n int) {
	if cap(m.cnt) < n {
		m.cnt = make([]uint32, n)
	}
	m.cnt = m.cnt[:n]
}

// has reports whether vertex v is occupied this run.
func (m *occMap) has(v int32) bool { return m.occ[v] == m.epoch }

// mark marks vertex v as occupied this run.
func (m *occMap) mark(v int32) { m.occ[v] = m.epoch }

// count returns how many settled particles vertex v hosts this run.
func (m *occMap) count(v int32) int32 {
	if c := m.cnt[v]; uint8(c>>24) == m.epoch {
		return int32(c & 0xffffff)
	}
	return 0
}

// setCount records that vertex v hosts c settled particles this run.
func (m *occMap) setCount(v int32, c int32) {
	m.cnt[v] = uint32(m.epoch)<<24 | uint32(c)
}

// beginRun prepares the occupancy map for a run of k particles on n
// vertices: everything starts unoccupied. Large, sparse runs (see
// sparseOccupancy) route occupancy through the O(k) hash table instead of
// the O(n) dense map, which is what keeps million-vertex dispersion on
// implicit graphs resident in O(particles) memory.
func (s *Scratch) beginRun(n, k int) {
	if s.sparse = s.forceSparse || sparseOccupancy(n, k); s.sparse {
		// Capacity runs can have k > n particles, but never more than n
		// distinct occupied vertices.
		if k > n {
			k = n
		}
		s.table.Reset(k)
		return
	}
	s.dense.begin(n)
}

// counts prepares the occupancy counts for a capacity-process run on n
// vertices; all counts start at zero. Sparse runs keep counts in the hash
// table, so there is nothing to size.
func (s *Scratch) counts(n int) {
	if !s.sparse {
		s.dense.counts(n)
	}
}

// count returns how many settled particles vertex v hosts this run.
func (s *Scratch) count(v int32) int32 {
	if s.sparse {
		return s.table.Get(v) &^ graph.OccupancyFull
	}
	return s.dense.count(v)
}

// setCount records that vertex v hosts c settled particles this run.
func (s *Scratch) setCount(v int32, c int32) {
	if s.sparse {
		s.table.Set(v, c|(s.table.Get(v)&graph.OccupancyFull))
		return
	}
	s.dense.setCount(v, c)
}

// fill records one more settled particle on vertex v, whose capacity is c,
// and reports whether v is now full.
func (s *Scratch) fill(v int32, c int) bool {
	cv := s.count(v) + 1
	s.setCount(v, cv)
	return int(cv) == c
}

// occupied reports whether vertex v hosts a settled particle this run (is
// at capacity, for the capacity processes).
func (s *Scratch) occupied(v int32) bool {
	if s.sparse {
		return s.table.Full(v)
	}
	return s.dense.has(v)
}

// occupy marks vertex v as hosting a settled particle (as being at
// capacity, for the capacity processes).
func (s *Scratch) occupy(v int32) {
	if s.sparse {
		s.table.Set(v, s.table.Get(v)|graph.OccupancyFull)
		return
	}
	s.dense.mark(v)
}

// growI32 returns a length-n slice reusing buf's backing array when it is
// large enough.
func growI32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// growI64 is growI32 for int64 buffers.
func growI64(buf []int64, n int) []int64 {
	if cap(buf) < n {
		return make([]int64, n)
	}
	return buf[:n]
}

// reset prepares res for a fresh run of k particles, reusing every backing
// array the previous occupant of this Result left behind.
func (res *Result) reset(k int, record bool) {
	res.Dispersion = 0
	res.TotalSteps = 0
	res.Truncated = false
	res.Capacity = 1
	res.Steps = growI64(res.Steps, k)
	for i := range res.Steps {
		res.Steps[i] = 0
	}
	res.SettledAt = growI32(res.SettledAt, k)
	for i := range res.SettledAt {
		res.SettledAt[i] = -1
	}
	if cap(res.SettleOrder) < k {
		res.SettleOrder = make([]int32, 0, k)
	} else {
		res.SettleOrder = res.SettleOrder[:0]
	}
	if cap(res.SettleClock) < k {
		res.SettleClock = make([]int64, 0, k)
	} else {
		res.SettleClock = res.SettleClock[:0]
	}
	if record {
		res.Trajectories = make([][]int32, k)
	} else {
		res.Trajectories = nil
	}
}

// reset prepares a continuous-time result for a fresh run of k particles.
func (res *CTResult) reset(k int, record bool) {
	res.Result.reset(k, record)
	res.Time = 0
	if cap(res.SettleTimes) < k {
		res.SettleTimes = make([]float64, 0, k)
	} else {
		res.SettleTimes = res.SettleTimes[:0]
	}
}
