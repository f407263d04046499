package graph

import (
	"math/bits"

	"dispersion/internal/rng"
)

// Kernel is a graph's specialized single-step engine: Step(v, r) returns a
// uniformly random neighbour of v, drawn exactly as the generic CSR walk
// draws it — the same RNG calls in the same order, mapping the drawn index
// i to the i-th neighbour of v in sorted CSR order. Swapping kernels
// therefore never changes a simulation's sample path, only its speed.
//
// Every CSR selects its kernel once at Build time: closed-form kernels
// for the families whose neighbour structure is pure arithmetic (complete
// graphs, cycles and paths touch no memory per step; hypercubes read one
// 2 KiB package-level table, shared by every graph), an offsets-free
// kernel for fixed-degree regular graphs (one adjacency load per step),
// and a fused CSR kernel for everything else (one row-slice fetch instead
// of separate Degree and Neighbor lookups).
//
// A kernel may also have the optional sparse walk
//
//	WalkUntilVacantSparse(v int32, lazy bool, t *OccupancyTable, budget int64, r *rng.Source) (int32, int64)
//
// which is WalkUntilVacant with the occ[v] == epoch test replaced by a
// probe of t for OccupancyFull, drawing the same variates. The implicit
// torus kernel has it; sparse runs on every other kernel walk a Step loop.
type Kernel interface {
	// Step returns a uniformly random neighbour of v. Vertices of degree
	// one move without consuming randomness (matching the generic walk);
	// every other vertex consumes exactly one bounded draw.
	Step(v int32, r *rng.Source) int32
	// WalkUntilVacant runs the IDLA settlement walk entirely inside the
	// kernel: starting from v, it repeatedly Steps (drawing a leading
	// coin per move when lazy is set) while the current vertex is
	// occupied, i.e. while occ[v] == epoch. It returns the final vertex
	// and the number of steps performed. The walk also returns as soon as
	// steps reaches budget, whatever the final vertex's occupancy — the
	// caller treats that as a truncated run. Keeping the whole loop
	// behind one interface call (instead of one call per step) lets each
	// concrete kernel inline its arithmetic and the RNG into the hottest
	// loop of the repository; the draws consumed are exactly those of the
	// equivalent Step loop.
	WalkUntilVacant(v int32, lazy bool, occ []uint8, epoch uint8, budget int64, r *rng.Source) (int32, int64)
	// StepLane advances every slot listed in idx by one walk move of the
	// batched lane, each slot drawing from its own Source, lane.Slot(j),
	// exactly what the loop
	//
	//	for _, j := range idx {
	//		r := lane.Slot(int(j))
	//		if lazy && r.Bool() {
	//			continue
	//		}
	//		pos[j] = Step(pos[j], r)
	//	}
	//
	// draws, so a slot hosting a trial draws that trial's scalar stream.
	// Occupancy is the lane scheduler's concern: StepLane unconditionally
	// moves every listed slot, and one call per superstep is what
	// amortizes the kernel dispatch across the whole lane.
	StepLane(pos []int32, idx []int32, lazy bool, lane *rng.LaneSource)
	// StepEach is StepLane with one source: it advances every slot
	// listed in idx by one walk move, all drawing from r. Its draws are
	// exactly those of the loop
	//
	//	for _, j := range idx {
	//		if lazy && r.Bool() {
	//			continue
	//		}
	//		pos[j] = Step(pos[j], r)
	//	}
	//
	// so degree-one vertices move without a draw and a stay consumes only
	// its coin. Each kernel keeps the generator state in locals for the
	// whole call, as its fused walk does. It is the Parallel process's one
	// move per round for every unsettled particle: a round costs one
	// interface dispatch instead of one per particle.
	StepEach(pos []int32, idx []int32, lazy bool, r *rng.Source)
	// Kind names the kernel family for introspection and tests: one of
	// "complete", "cycle", "path", "hypercube", "regular", "csr"; for
	// weighted backends "walias" (the generic alias kernel) or
	// "wcomplete" (a weighted K_n, n >= 3, whose alias walk reads only
	// the alias tables); or — for the implicit backends — "torus",
	// "circulant", "rregular".
	Kind() string
}

// LaneGathers reports whether a batched standard-law job on k runs a
// lane: true for the table-backed kernels, whose step loads adjacency or
// alias memory (csr, regular, walias, wcomplete), where stepping many
// slots at once overlaps their cache misses. Every other kernel computes
// its neighbour, so there is no miss to overlap, and a batched job on it
// runs the unbatched path, which draws the same streams, as a batched job
// under any other law does on every kernel. core.LaneWidth, the one place
// that decides how a batched job runs, asks it.
func LaneGathers(k Kernel) bool {
	switch k.(type) {
	case csrKernel, regularKernel, weightedKernel, weightedCompleteKernel:
		return true
	}
	return false
}

// stepLane is StepLane for every kernel whose step computes its
// neighbour: each listed slot draws its lazy coin and its Step from its
// own Source, the loop the StepLane contract states, so it holds by
// construction. Only a direct core.RunLane call steps these kernels'
// lanes (see LaneGathers). It is generic so that a call boxes no kernel
// value: an interface parameter would allocate one per call.
func stepLane[K Kernel](k K, pos []int32, idx []int32, lazy bool, lane *rng.LaneSource) {
	for _, j := range idx {
		r := lane.Slot(int(j))
		if lazy && r.Bool() {
			continue
		}
		pos[j] = k.Step(pos[j], r)
	}
}

// Kernel returns the step kernel selected for this graph at Build time.
// Hot loops should hoist it out of the loop body.
func (g *CSR) Kernel() Kernel { return g.kernel }

// GenericKernel returns the fused CSR kernel for this graph regardless of
// the kernel Build selected, as the reference implementation for
// kernel-equivalence tests and kernel-vs-generic benchmarks.
func (g *CSR) GenericKernel() Kernel { return csrKernel{g} }

// detectKernel picks the fastest kernel whose closed form provably matches
// the graph's sorted CSR adjacency. Detection verifies the full neighbour
// structure (not just the family name), so relabelled or hand-built copies
// of a family qualify exactly when their adjacency does.
func detectKernel(g *CSR) Kernel {
	n := g.N()
	if n >= 2 && matchesClosedForm(g, completeKernel{n: int32(n)}) {
		return completeKernel{n: int32(n)}
	}
	if n >= 3 && matchesClosedForm(g, cycleKernel{n: int32(n)}) {
		return cycleKernel{n: int32(n)}
	}
	if n >= 2 && matchesClosedForm(g, pathKernel{n: int32(n)}) {
		return pathKernel{n: int32(n)}
	}
	if k := bits.TrailingZeros(uint(n)); n >= 2 && n == 1<<k && 4*len(g.adj) >= hypercubeClosedFormMinBytes {
		hk := hypercubeKernel{k: int32(k)}
		if matchesClosedForm(g, hk) {
			return hk
		}
	}
	if d := g.MaxDegree(); d >= 1 && g.IsRegular() {
		return regularKernel{adj: g.adj, deg: int32(d)}
	}
	return csrKernel{g}
}

// hypercubeClosedFormMinBytes gates the hypercube closed form on the CSR
// adjacency footprint. The kernel's table select costs more than an
// L1-resident adjacency load (fused walk, 8.6-10.7 vs 3.8-5.9 ns/step on
// Q_9) and about the same as an L2-resident one (8.6-10.5 vs 8.3-9.4 on
// Q_14), but less than the cache misses of a multi-megabyte adjacency
// (8.7-11.4 vs 25.6-35.9 on Q_16), so small hypercubes take the
// offsets-free regular kernel instead and only cache-hostile ones go
// arithmetic. Complete graphs and cycles need no such gate: their closed
// forms beat the fused CSR load at every size.
const hypercubeClosedFormMinBytes = 1 << 20

// HypercubePrefersCSR reports whether Q_k falls below the closed-form
// footprint gate, i.e. its CSR adjacency is small enough that the
// cache-resident regular kernel beats the table select. Backend
// routing (graphspec) uses it to decide implicit-vs-CSR for hypercubes.
func HypercubePrefersCSR(k int) bool {
	if k < 1 || k > 30 {
		return true
	}
	return int64(4)*int64(k)<<k < hypercubeClosedFormMinBytes
}

// closedForm is the verification face of an arithmetic kernel: nth(v, i)
// is its claimed i-th sorted neighbour of v and degree(v) its claimed
// degree, checked against the real CSR lists before the kernel is adopted.
type closedForm interface {
	Kernel
	nth(v, i int32) int32
	degree(v int32) int32
}

// matchesClosedForm reports whether the kernel's arithmetic reproduces the
// graph's sorted adjacency exactly, vertex by vertex and index by index.
func matchesClosedForm(g *CSR, k closedForm) bool {
	for v := 0; v < g.N(); v++ {
		ns := g.Neighbors(v)
		if int32(len(ns)) != k.degree(int32(v)) {
			return false
		}
		for i, u := range ns {
			if u != k.nth(int32(v), int32(i)) {
				return false
			}
		}
	}
	return true
}

// csrKernel is the fused generic kernel: one row-slice fetch per step in
// place of the historical Degree-then-Neighbor pair of bounds-checked CSR
// lookups.
type csrKernel struct{ g *CSR }

// Kind returns "csr".
func (csrKernel) Kind() string { return "csr" }

// Step returns a uniformly random CSR neighbour of v.
func (k csrKernel) Step(v int32, r *rng.Source) int32 {
	ns := k.g.adj[k.g.offsets[v]:k.g.offsets[v+1]]
	if len(ns) == 1 {
		return ns[0]
	}
	return ns[r.Int31n(int32(len(ns)))]
}

// WalkUntilVacant walks v to the first vacant vertex (or the budget).
//
// Every kernel repeats this identical loop body rather than sharing one
// generic helper: the k.Step call on the concrete receiver is a direct
// call (no kernel's Step is small enough to inline), not an interface or
// dictionary dispatch, which is why the loop hides behind one dispatch.
func (k csrKernel) WalkUntilVacant(v int32, lazy bool, occ []uint8, epoch uint8, budget int64, r *rng.Source) (int32, int64) {
	var steps int64
	for occ[v] == epoch {
		if !lazy || !r.Bool() {
			v = k.Step(v, r)
		}
		steps++
		if steps >= budget {
			break
		}
	}
	return v, steps
}

// StepLane advances the listed lane slots one gather-loop move each.
//
// The table-backed kernels' StepLane loops hand-inline the bounded-draw
// law of rng.Source.Intn (Lemire multiply-shift rejection on the slot
// stream) instead of calling it: the call would not inline, and the whole
// point of the lane is that the per-slot draw+arithmetic stays branch-thin
// so the CPU overlaps the independent slots' loads.
func (k csrKernel) StepLane(pos []int32, idx []int32, lazy bool, lane *rng.LaneSource) {
	offsets, adj := k.g.offsets, k.g.adj
	for _, j := range idx {
		sj := int(j)
		if lazy && lane.Uint64(sj)&1 == 1 {
			continue
		}
		v := pos[j]
		ns := adj[offsets[v]:offsets[v+1]]
		if len(ns) == 1 {
			pos[j] = ns[0]
			continue
		}
		un := uint64(len(ns))
		hi, lo := bits.Mul64(lane.Uint64(sj), un)
		if lo < un {
			thresh := -un % un
			for lo < thresh {
				hi, lo = bits.Mul64(lane.Uint64(sj), un)
			}
		}
		pos[j] = ns[hi]
	}
}

// StepEach advances the listed slots one fused-row move each, drawing
// from r as a Step loop does (see Kernel.StepEach).
func (k csrKernel) StepEach(pos []int32, idx []int32, lazy bool, r *rng.Source) {
	offsets, adj := k.g.offsets, k.g.adj
	st := r.State()
	for _, j := range idx {
		var x uint64
		if lazy {
			st, x = st.Next()
		}
		if x&1 == 1 { // lazy stay
			continue
		}
		v := pos[j]
		ns := adj[offsets[v]:offsets[v+1]]
		if len(ns) == 1 {
			pos[j] = ns[0]
			continue
		}
		// Intn(len(ns))'s draw law.
		un := uint64(len(ns))
		st, x = st.Next()
		hi, lo := bits.Mul64(x, un)
		if lo < un {
			thresh := -un % un
			for lo < thresh {
				st, x = st.Next()
				hi, lo = bits.Mul64(x, un)
			}
		}
		pos[j] = ns[hi]
	}
	r.SetState(st)
}

// regularKernel serves fixed-degree regular graphs: row v starts at v*deg,
// so a step needs one adjacency load and no offsets lookup at all.
type regularKernel struct {
	adj []int32
	deg int32
}

// Kind returns "regular".
func (regularKernel) Kind() string { return "regular" }

// Step returns a uniformly random neighbour via the dense row layout.
func (k regularKernel) Step(v int32, r *rng.Source) int32 {
	if k.deg == 1 {
		return k.adj[v]
	}
	return k.adj[v*k.deg+r.Int31n(k.deg)]
}

// WalkUntilVacant walks v to the first vacant vertex (or the budget),
// with the generator state in locals for the whole walk (see
// cycleKernel.WalkUntilVacant).
func (k regularKernel) WalkUntilVacant(v int32, lazy bool, occ []uint8, epoch uint8, budget int64, r *rng.Source) (int32, int64) {
	adj, deg := k.adj, k.deg
	un := uint64(deg)
	thresh := -un % un
	st := r.State()
	var steps int64
	for occ[v] == epoch {
		var x uint64
		if lazy {
			st, x = st.Next()
		}
		switch {
		case x&1 == 1: // lazy stay
		case deg == 1:
			v = adj[v]
		default:
			// Intn(deg)'s draw law, with its rejection threshold hoisted.
			st, x = st.Next()
			hi, lo := bits.Mul64(x, un)
			for lo < thresh {
				st, x = st.Next()
				hi, lo = bits.Mul64(x, un)
			}
			v = adj[v*deg+int32(hi)]
		}
		steps++
		if steps >= budget {
			break
		}
	}
	r.SetState(st)
	return v, steps
}

// StepLane advances the listed lane slots one dense-row move each.
func (k regularKernel) StepLane(pos []int32, idx []int32, lazy bool, lane *rng.LaneSource) {
	if k.deg == 1 {
		for _, j := range idx {
			if lazy && lane.Uint64(int(j))&1 == 1 {
				continue
			}
			pos[j] = k.adj[pos[j]]
		}
		return
	}
	un := uint64(k.deg)
	thresh := -un % un
	for _, j := range idx {
		sj := int(j)
		if lazy && lane.Uint64(sj)&1 == 1 {
			continue
		}
		hi, lo := bits.Mul64(lane.Uint64(sj), un)
		for lo < thresh {
			hi, lo = bits.Mul64(lane.Uint64(sj), un)
		}
		pos[j] = k.adj[pos[j]*k.deg+int32(hi)]
	}
}

// StepEach advances the listed slots one dense-row move each, drawing
// from r as a Step loop does (see Kernel.StepEach).
func (k regularKernel) StepEach(pos []int32, idx []int32, lazy bool, r *rng.Source) {
	adj, deg := k.adj, k.deg
	un := uint64(deg)
	thresh := -un % un
	st := r.State()
	for _, j := range idx {
		var x uint64
		if lazy {
			st, x = st.Next()
		}
		switch {
		case x&1 == 1: // lazy stay
		case deg == 1:
			pos[j] = adj[pos[j]]
		default:
			st, x = st.Next()
			hi, lo := bits.Mul64(x, un)
			for lo < thresh {
				st, x = st.Next()
				hi, lo = bits.Mul64(x, un)
			}
			pos[j] = adj[pos[j]*deg+int32(hi)]
		}
	}
	r.SetState(st)
}

// completeKernel is the closed-form kernel for K_n: the i-th sorted
// neighbour of v is i when i < v and i+1 otherwise, so a step is a draw
// and a select — no memory touched.
type completeKernel struct{ n int32 }

// Kind returns "complete".
func (completeKernel) Kind() string { return "complete" }

// completeSelect returns nth(v, i) without a branch: v−1−i is negative
// exactly when i >= v, and the arithmetic shift turns its sign into −1
// (0 otherwise). A drawn i is random, so nth's branch mispredicts on about
// one step in two.
func completeSelect(v, i int32) int32 { return i - (v-1-i)>>31 }

// Step returns a uniformly random neighbour of v in K_n.
func (k completeKernel) Step(v int32, r *rng.Source) int32 {
	if k.n == 2 {
		return 1 - v
	}
	return completeSelect(v, r.Int31n(k.n-1))
}

// WalkUntilVacant walks v to the first vacant vertex (or the budget),
// with the generator state in locals for the whole walk (see
// cycleKernel.WalkUntilVacant).
func (k completeKernel) WalkUntilVacant(v int32, lazy bool, occ []uint8, epoch uint8, budget int64, r *rng.Source) (int32, int64) {
	un := uint64(k.n - 1)
	thresh := -un % un
	st := r.State()
	var steps int64
	for occ[v] == epoch {
		var x uint64
		if lazy {
			st, x = st.Next()
		}
		switch {
		case x&1 == 1: // lazy stay
		case un == 1:
			v = 1 - v
		default:
			// Intn(n-1)'s draw law, with its rejection threshold hoisted.
			st, x = st.Next()
			hi, lo := bits.Mul64(x, un)
			for lo < thresh {
				st, x = st.Next()
				hi, lo = bits.Mul64(x, un)
			}
			v = completeSelect(v, int32(hi))
		}
		steps++
		if steps >= budget {
			break
		}
	}
	r.SetState(st)
	return v, steps
}

// StepLane advances the listed lane slots one move each (see stepLane).
func (k completeKernel) StepLane(pos []int32, idx []int32, lazy bool, lane *rng.LaneSource) {
	stepLane(k, pos, idx, lazy, lane)
}

// StepEach advances the listed slots one draw-and-select move each,
// drawing from r as a Step loop does (see Kernel.StepEach).
func (k completeKernel) StepEach(pos []int32, idx []int32, lazy bool, r *rng.Source) {
	un := uint64(k.n - 1)
	thresh := -un % un
	st := r.State()
	for _, j := range idx {
		var x uint64
		if lazy {
			st, x = st.Next()
		}
		switch {
		case x&1 == 1: // lazy stay
		case un == 1:
			pos[j] = 1 - pos[j]
		default:
			st, x = st.Next()
			hi, lo := bits.Mul64(x, un)
			for lo < thresh {
				st, x = st.Next()
				hi, lo = bits.Mul64(x, un)
			}
			pos[j] = completeSelect(pos[j], int32(hi))
		}
	}
	r.SetState(st)
}

func (k completeKernel) nth(v, i int32) int32 {
	if i < v {
		return i
	}
	return i + 1
}

func (k completeKernel) degree(int32) int32 { return k.n - 1 }

// cycleKernel is the closed-form kernel for the canonical cycle C_n
// (vertex v adjacent to v±1 mod n).
type cycleKernel struct{ n int32 }

// Kind returns "cycle".
func (cycleKernel) Kind() string { return "cycle" }

// Step returns a uniformly random cycle neighbour of v.
func (k cycleKernel) Step(v int32, r *rng.Source) int32 {
	return k.nth(v, r.Int31n(2))
}

// WalkUntilVacant walks v to the first vacant vertex (or the budget).
//
// The walk copies the generator state out of r, advances it in locals
// and writes it back once, so the four state words stay in registers
// instead of being stored and reloaded through *r on every draw. The
// draws are those of the Step loop: a lazy coin first (low bit 1 stays,
// Bool's law), then Int31n(2), whose two-way draw never rejects and is
// the top bit.
func (k cycleKernel) WalkUntilVacant(v int32, lazy bool, occ []uint8, epoch uint8, budget int64, r *rng.Source) (int32, int64) {
	st := r.State()
	var steps int64
	for occ[v] == epoch {
		var x uint64
		if lazy {
			st, x = st.Next()
		}
		if x&1 == 0 {
			st, x = st.Next()
			v = k.nth(v, int32(x>>63))
		}
		steps++
		if steps >= budget {
			break
		}
	}
	r.SetState(st)
	return v, steps
}

// StepLane advances the listed lane slots one move each (see stepLane).
func (k cycleKernel) StepLane(pos []int32, idx []int32, lazy bool, lane *rng.LaneSource) {
	stepLane(k, pos, idx, lazy, lane)
}

// StepEach advances the listed slots one ±1 (mod n) move each, drawing
// from r as a Step loop does (see Kernel.StepEach): Int31n(2) is the top
// bit of one draw.
func (k cycleKernel) StepEach(pos []int32, idx []int32, lazy bool, r *rng.Source) {
	st := r.State()
	for _, j := range idx {
		var x uint64
		if lazy {
			st, x = st.Next()
		}
		if x&1 == 0 {
			st, x = st.Next()
			pos[j] = k.nth(pos[j], int32(x>>63))
		}
	}
	r.SetState(st)
}

func (k cycleKernel) nth(v, i int32) int32 {
	switch v {
	case 0:
		if i == 0 {
			return 1
		}
		return k.n - 1
	case k.n - 1:
		if i == 0 {
			return 0
		}
		return k.n - 2
	default:
		return v - 1 + 2*i
	}
}

func (cycleKernel) degree(int32) int32 { return 2 }

// pathKernel is the closed-form kernel for the canonical path P_n (vertex
// v adjacent to v±1). Endpoints have degree one and move without a draw.
type pathKernel struct{ n int32 }

// Kind returns "path".
func (pathKernel) Kind() string { return "path" }

// Step returns a uniformly random path neighbour of v.
func (k pathKernel) Step(v int32, r *rng.Source) int32 {
	switch v {
	case 0:
		return 1
	case k.n - 1:
		return k.n - 2
	default:
		return v - 1 + 2*r.Int31n(2)
	}
}

// WalkUntilVacant walks v to the first vacant vertex (or the budget).
func (k pathKernel) WalkUntilVacant(v int32, lazy bool, occ []uint8, epoch uint8, budget int64, r *rng.Source) (int32, int64) {
	var steps int64
	for occ[v] == epoch {
		if !lazy || !r.Bool() {
			v = k.Step(v, r)
		}
		steps++
		if steps >= budget {
			break
		}
	}
	return v, steps
}

// StepLane advances the listed lane slots one move each (see stepLane).
func (k pathKernel) StepLane(pos []int32, idx []int32, lazy bool, lane *rng.LaneSource) {
	stepLane(k, pos, idx, lazy, lane)
}

// StepEach advances the listed slots one path move each, drawing from r
// as a Step loop does (see Kernel.StepEach); endpoints move without a
// draw.
func (k pathKernel) StepEach(pos []int32, idx []int32, lazy bool, r *rng.Source) {
	st := r.State()
	for _, j := range idx {
		var x uint64
		if lazy {
			st, x = st.Next()
		}
		if x&1 == 1 { // lazy stay
			continue
		}
		switch v := pos[j]; v {
		case 0:
			pos[j] = 1
		case k.n - 1:
			pos[j] = k.n - 2
		default:
			st, x = st.Next()
			pos[j] = v - 1 + 2*int32(x>>63)
		}
	}
	r.SetState(st)
}

func (k pathKernel) nth(v, i int32) int32 {
	switch v {
	case 0:
		return 1
	case k.n - 1:
		return k.n - 2
	default:
		return v - 1 + 2*i
	}
}

func (k pathKernel) degree(v int32) int32 {
	if v == 0 || v == k.n-1 {
		return 1
	}
	return 2
}

// hypercubeKernel is the closed-form kernel for the canonical hypercube
// Q_k (u ~ v iff u xor v is a power of two). The sorted neighbour list of
// v is: v - 2^d over the set bits d of v in descending bit order, then
// v + 2^d over the clear bits in ascending order. hypercubeDim selects the
// i-th entry's dimension without a loop, from the 2 KiB hypercubeRows
// table, which is the only memory a step reads.
type hypercubeKernel struct{ k int32 }

// hypercubeRows holds, for each byte value b, the dimensions of b's eight
// sorted Q_8 neighbours as nibbles (entry i in bits 4i..4i+3) and b's
// popcount in bits 32 and up. Keeping the popcount in the table spares
// the walk bits.OnesCount32, which under GOAMD64=v1 is a CPU-feature test
// with a fallback call.
var hypercubeRows = func() (rows [256]uint64) {
	for b := range rows {
		var row uint64
		i := 0
		for d := 7; d >= 0; d-- { // set bits, descending
			if b>>d&1 == 1 {
				row |= uint64(d) << (4 * i)
				i++
			}
		}
		s := i
		for d := 0; d < 8; d++ { // clear bits, ascending
			if b>>d&1 == 0 {
				row |= uint64(d) << (4 * i)
				i++
			}
		}
		rows[b] = row | uint64(s)<<32
	}
	return rows
}()

// hypercubeDim16 returns the dimension d such that v ^ 1<<d is the i-th
// sorted neighbour of v in Q_k, for v < 2^16 and i < k <= 16. It splits v
// into its high byte h and low byte l: v's list is h's set bits, then
// l's whole sorted list, then h's clear bits, h's dimensions counting
// from 8. So with s = popcount(h) the list is one 16-nibble word: h's row
// with 8 added to each nibble, cut after its first s nibbles, with l's
// row inserted at the cut. The two table loads are independent and the
// word takes no branch to build. (The compiler keeps a branch rather than
// a conditional move for a value that feeds a load address, as v does,
// and with i random such a branch mispredicts often.) It inlines; the
// walk calls it directly up to k = 16.
func hypercubeDim16(v, i uint) uint {
	hr, lr := hypercubeRows[v>>8&255], hypercubeRows[v&255]
	s4 := uint(hr>>32) * 4
	hh := hr | 0x88888888
	m := uint64(1)<<(s4&63) - 1
	seq := hh&m | uint64(uint32(lr))<<(s4&63) | (hh&^m)<<32
	return uint(seq>>(4*i&63)) & 15
}

// hypercubeDim is hypercubeDim16 for every k <= 30: the same split over
// v's 16-bit halves, with the high half's popcount read from the table.
func hypercubeDim(v, i uint) uint {
	hv := v >> 16
	s := uint(hypercubeRows[hv>>8&255]>>32 + hypercubeRows[hv&255]>>32)
	if j := i - s; j < 16 {
		return hypercubeDim16(v&0xffff, j)
	}
	if i >= s {
		i -= 16
	}
	return hypercubeDim16(hv, i) + 16
}

// Kind returns "hypercube".
func (hypercubeKernel) Kind() string { return "hypercube" }

// Step returns a uniformly random hypercube neighbour of v.
func (k hypercubeKernel) Step(v int32, r *rng.Source) int32 {
	if k.k == 1 {
		return v ^ 1
	}
	return k.nth(v, r.Int31n(k.k))
}

// WalkUntilVacant walks v to the first vacant vertex (or the budget),
// with the generator state in locals for the whole walk (see
// cycleKernel.WalkUntilVacant). Up to k = 16 a step calls the inlined
// hypercubeDim16; the branch on k takes the same way on every step.
func (k hypercubeKernel) WalkUntilVacant(v int32, lazy bool, occ []uint8, epoch uint8, budget int64, r *rng.Source) (int32, int64) {
	un := uint64(k.k)
	thresh := -un % un
	small := k.k <= 16
	st := r.State()
	var steps int64
	for occ[v] == epoch {
		var x uint64
		if lazy {
			st, x = st.Next()
		}
		switch {
		case x&1 == 1: // lazy stay
		case un == 1:
			v ^= 1
		default:
			// Intn(k)'s draw law, with its rejection threshold hoisted.
			st, x = st.Next()
			hi, lo := bits.Mul64(x, un)
			for lo < thresh {
				st, x = st.Next()
				hi, lo = bits.Mul64(x, un)
			}
			var d uint
			if small {
				d = hypercubeDim16(uint(v), uint(hi))
			} else {
				d = hypercubeDim(uint(v), uint(hi))
			}
			v ^= 1 << d
		}
		steps++
		if steps >= budget {
			break
		}
	}
	r.SetState(st)
	return v, steps
}

// StepLane advances the listed lane slots one move each (see stepLane).
func (k hypercubeKernel) StepLane(pos []int32, idx []int32, lazy bool, lane *rng.LaneSource) {
	stepLane(k, pos, idx, lazy, lane)
}

// StepEach advances the listed slots one bit-flip move each, drawing
// from r as a Step loop does (see Kernel.StepEach).
func (k hypercubeKernel) StepEach(pos []int32, idx []int32, lazy bool, r *rng.Source) {
	un := uint64(k.k)
	thresh := -un % un
	small := k.k <= 16
	st := r.State()
	for _, j := range idx {
		var x uint64
		if lazy {
			st, x = st.Next()
		}
		switch {
		case x&1 == 1: // lazy stay
		case un == 1:
			pos[j] ^= 1
		default:
			st, x = st.Next()
			hi, lo := bits.Mul64(x, un)
			for lo < thresh {
				st, x = st.Next()
				hi, lo = bits.Mul64(x, un)
			}
			v := uint(pos[j])
			var d uint
			if small {
				d = hypercubeDim16(v, uint(hi))
			} else {
				d = hypercubeDim(v, uint(hi))
			}
			pos[j] ^= 1 << d
		}
	}
	r.SetState(st)
}

func (k hypercubeKernel) nth(v, i int32) int32 {
	return v ^ 1<<hypercubeDim(uint(v), uint(i))
}

func (k hypercubeKernel) degree(int32) int32 { return k.k }
