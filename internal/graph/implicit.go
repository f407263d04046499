package graph

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"dispersion/internal/rng"
)

// Implicit is the adjacency-free Graph backend: a generated family whose
// kernel, degrees, and connectivity are pure arithmetic. No edge is ever
// stored, so an Implicit graph costs O(1) memory regardless of n and the
// whole simulation runs in O(particles) — the regime that makes
// million-to-hundred-million-vertex dispersion jobs feasible.
//
// Every implicit kernel obeys the same draw contract as the CSR kernels:
// a step draws exactly one bounded variate (none at degree one) and maps
// the drawn index i to the i-th neighbour in sorted order, so implicit
// streams are bit-identical to the streams of a CSR-built twin of the
// same family. The property suite pins this at small n.
type Implicit struct {
	name      string
	n         int
	kernel    closedForm
	connected bool
}

// N returns the number of vertices.
func (g *Implicit) N() int { return g.n }

// Name returns the human-readable family label.
func (g *Implicit) Name() string { return g.name }

// Degree returns the degree of vertex v, computed from the closed form.
func (g *Implicit) Degree(v int) int { return int(g.kernel.degree(int32(v))) }

// Kernel returns the family's arithmetic step kernel.
func (g *Implicit) Kernel() Kernel { return g.kernel }

// IsConnected reports whether the graph is connected; for implicit
// families the answer is known analytically at construction time.
func (g *Implicit) IsConnected() bool { return g.connected }

// HasEdge reports whether {u, v} is an edge, by scanning u's closed-form
// neighbour list (O(deg) — implicit degrees are small constants).
func (g *Implicit) HasEdge(u, v int) bool {
	d := g.kernel.degree(int32(u))
	for i := int32(0); i < d; i++ {
		if g.kernel.nth(int32(u), i) == int32(v) {
			return true
		}
	}
	return false
}

// ImplicitComplete returns K_n as an implicit graph (n >= 2).
func ImplicitComplete(n int) *Implicit {
	if n < 2 {
		panic("graph: ImplicitComplete requires n >= 2")
	}
	return &Implicit{
		name:      fmt.Sprintf("complete-%d", n),
		n:         n,
		kernel:    completeKernel{n: int32(n)},
		connected: true,
	}
}

// ImplicitCycle returns C_n as an implicit graph (n >= 3).
func ImplicitCycle(n int) *Implicit {
	if n < 3 {
		panic("graph: ImplicitCycle requires n >= 3")
	}
	return &Implicit{
		name:      fmt.Sprintf("cycle-%d", n),
		n:         n,
		kernel:    cycleKernel{n: int32(n)},
		connected: true,
	}
}

// ImplicitPath returns P_n as an implicit graph (n >= 2).
func ImplicitPath(n int) *Implicit {
	if n < 2 {
		panic("graph: ImplicitPath requires n >= 2")
	}
	return &Implicit{
		name:      fmt.Sprintf("path-%d", n),
		n:         n,
		kernel:    pathKernel{n: int32(n)},
		connected: true,
	}
}

// ImplicitHypercube returns Q_k as an implicit graph (1 <= k <= 30).
func ImplicitHypercube(k int) *Implicit {
	if k < 1 || k > 30 {
		panic("graph: ImplicitHypercube requires 1 <= k <= 30")
	}
	return &Implicit{
		name:      fmt.Sprintf("hypercube-%d", 1<<k),
		n:         1 << k,
		kernel:    hypercubeKernel{k: int32(k)},
		connected: true,
	}
}

// MaxTorusDims bounds the effective (side >= 3) dimensions of an implicit
// torus, which bounds its move table (3^D rows) and lets a walk keep its
// coordinates in a fixed-size stack array.
const MaxTorusDims = 8

// ImplicitTorus returns the d-dimensional torus with the given side
// lengths as an implicit graph, indexed in row-major order exactly like
// Grid(sides, true). Sides of length 1 are allowed and contribute no
// edges; sides of length 2 would create parallel edges and are rejected;
// at least one side must be >= 3 and at most MaxTorusDims may be.
//
// The graph stores no adjacency. With D >= 2 effective dimensions its
// kernel holds a move table of 3^D·2D entries of 16 bytes, whatever the
// side lengths: 576 B at D = 2, 2.5 KiB at D = 3, 1.6 MiB at D = 8.
func ImplicitTorus(sides []int) (*Implicit, error) {
	n, eff := 1, 0
	for _, s := range sides {
		if s < 1 {
			return nil, fmt.Errorf("graph: torus sides must be >= 1, got %d", s)
		}
		if s == 2 {
			return nil, fmt.Errorf("graph: torus with side 2 would create parallel edges")
		}
		if s >= 3 {
			eff++
		}
		if n > (1<<31-1)/s {
			return nil, fmt.Errorf("graph: torus vertex count overflows int32")
		}
		n *= s
	}
	if eff == 0 {
		return nil, fmt.Errorf("graph: torus needs at least one side >= 3")
	}
	if eff > MaxTorusDims {
		return nil, fmt.Errorf("graph: torus supports at most %d effective dimensions, got %d", MaxTorusDims, eff)
	}
	g := &Implicit{
		name:      fmt.Sprintf("torus-%dd-%d", len(sides), n),
		n:         n,
		connected: true,
	}
	if eff == 1 {
		// One effective dimension degenerates to the canonical cycle
		// (vertices are consecutively labelled because the other sides
		// are 1), and C_n's dedicated kernel is faster.
		g.kernel = cycleKernel{n: int32(n)}
		return g, nil
	}
	// Row-major order makes the last side the stride-1 dimension; sides
	// of length 1 leave every stride unchanged.
	effSides := make([]int32, 0, eff)
	for d := len(sides) - 1; d >= 0; d-- {
		if sides[d] >= 3 {
			effSides = append(effSides, int32(sides[d]))
		}
	}
	g.kernel = newTorusKernel(effSides)
	return g, nil
}

// maxCirculantOffsets bounds the offset set of an implicit circulant so a
// step's candidate buffer fits on the stack.
const maxCirculantOffsets = 16

// ImplicitCirculant returns the circulant graph C_n(S) as an implicit
// graph: vertex v is adjacent to v±s (mod n) for every offset s in S.
// Offsets must be distinct and in [1, n/2]; an offset with 2s = n
// contributes a single neighbour. The graph is connected iff
// gcd(n, s_1, ..., s_k) = 1.
func ImplicitCirculant(n int, offsets []int) (*Implicit, error) {
	if n < 3 {
		return nil, fmt.Errorf("graph: circulant requires n >= 3, got %d", n)
	}
	if len(offsets) == 0 {
		return nil, fmt.Errorf("graph: circulant requires at least one offset")
	}
	if len(offsets) > maxCirculantOffsets {
		return nil, fmt.Errorf("graph: circulant supports at most %d offsets, got %d", maxCirculantOffsets, len(offsets))
	}
	offs := make([]int, len(offsets))
	copy(offs, offsets)
	sort.Ints(offs)
	k := circulantKernel{n: int32(n), offs: make([]int32, 0, len(offs))}
	gcd := n
	for i, s := range offs {
		if s < 1 || 2*s > n {
			return nil, fmt.Errorf("graph: circulant offset %d out of range [1, %d]", s, n/2)
		}
		if i > 0 && offs[i-1] == s {
			return nil, fmt.Errorf("graph: duplicate circulant offset %d", s)
		}
		k.offs = append(k.offs, int32(s))
		if 2*s == n {
			k.deg++
		} else {
			k.deg += 2
		}
		for s != 0 {
			gcd, s = s, gcd%s
		}
	}
	name := fmt.Sprintf("circulant-%d", n)
	for _, s := range offs {
		name += fmt.Sprintf("+%d", s)
	}
	return &Implicit{name: name, n: n, kernel: k, connected: gcd == 1}, nil
}

// maxRRegularDegree bounds the degree of an implicit random-regular graph
// so a step's candidate buffer fits on the stack.
const maxRRegularDegree = 32

// ImplicitRandomRegular returns a random d-regular graph on n vertices as
// an implicit graph, sampled as the union of d/2 independent seeded
// Hamiltonian cycles: cycle j visits the vertices in the order of a
// Feistel pseudorandom permutation keyed by (seed, j), so the neighbours
// of v are recovered in O(d) arithmetic from the permutation and its
// inverse — no adjacency, no rejection sampling, connected by
// construction. d must be even, 2 <= d <= maxRRegularDegree, n >= 3.
//
// Unlike RandomRegular (configuration model with rejection), the union
// of cycles may repeat an edge with probability O(d²/n); the walk then
// behaves as on a multigraph, stepping to a repeated neighbour with
// proportionally higher probability. At the million-vertex scales this
// backend targets the effect is negligible, and Materialize reports the
// collision explicitly if a CSR twin is requested.
func ImplicitRandomRegular(n, d int, seed uint64) (*Implicit, error) {
	if n < 3 {
		return nil, fmt.Errorf("graph: implicit random-regular requires n >= 3, got %d", n)
	}
	if d < 2 || d%2 != 0 || d > maxRRegularDegree {
		return nil, fmt.Errorf("graph: implicit random-regular requires even d in [2, %d], got %d", maxRRegularDegree, d)
	}
	k := rregKernel{n: int32(n), deg: int32(d), perms: make([]feistel, 0, d/2)}
	for j := 0; j < d/2; j++ {
		k.perms = append(k.perms, newFeistel(n, splitmix(seed, uint64(j))))
	}
	return &Implicit{
		name:      fmt.Sprintf("rregular-%d-d%d-s%d", n, d, seed),
		n:         n,
		kernel:    k,
		connected: true,
	}, nil
}

// Materialize returns a CSR twin of g: the same vertex set and edges in
// sorted-CSR form. A CSR graph is returned as-is; an implicit graph is
// rebuilt edge by edge from its closed form, which costs the O(n·d)
// memory the implicit backend exists to avoid — intended for small-n
// verification twins and the adjacency-hungry analytics (spectra,
// diameters) that have no implicit form. An implicit random-regular
// sample whose cycles collided on an edge is reported as a duplicate-edge
// error.
func Materialize(g Graph) (*CSR, error) {
	if c, ok := g.(*CSR); ok {
		return c, nil
	}
	if w, ok := g.(*WeightedCSR); ok {
		return w.CSR(), nil
	}
	cf, ok := g.Kernel().(closedForm)
	if !ok {
		return nil, fmt.Errorf("graph: cannot materialize %s: kernel %q has no closed form", g.Name(), g.Kernel().Kind())
	}
	b := NewBuilder(g.Name(), g.N())
	for v := 0; v < g.N(); v++ {
		d := cf.degree(int32(v))
		for i := int32(0); i < d; i++ {
			if u := cf.nth(int32(v), i); int32(v) < u {
				b.AddEdge(v, int(u))
			}
		}
	}
	return b.Build()
}

// insertSorted places x into the sorted prefix buf[:i] of a candidate
// buffer, the O(d) insertion step shared by the implicit kernels (d is a
// small constant, so insertion sort beats anything with overhead).
func insertSorted(buf []int32, i int, x int32) {
	j := i
	for j > 0 && buf[j-1] > x {
		buf[j] = buf[j-1]
		j--
	}
	buf[j] = x
}

// torusKernel is the implicit kernel for d-dimensional tori with D >= 2
// effective dimensions. The sorted neighbour list of v depends only on
// each dimension's boundary class — coordinate 0, interior, or side-1 —
// because dimension d moves v by ±stride_d or ∓(side_d-1)·stride_d, and
// every such offset is smaller in magnitude than stride_{d+1}. So the
// kernel keeps one move table, built once per graph: row c (a base-3
// class index, digit d being dimension d's class) lists the 2D moves in
// sorted-neighbour order, and the drawn index i picks entry i of v's row.
// The stateless Step, StepLane and nth find v's row from its coordinates,
// computed by multiply-based division; WalkUntilVacant and
// WalkUntilVacantSparse compute the coordinates once per walk and then
// advance them with v, so a step is one bounded draw and one table
// lookup.
type torusKernel struct {
	deg   int32
	dims  []torusDim  // effective dimensions, stride 1 first
	moves []torusMove // 3^D rows of deg entries, indexed by class
}

// torusDim is one effective dimension of an implicit torus.
type torusDim struct {
	side  int32
	pow3  int32  // weight of the dimension's digit in a class index
	recip uint64 // ⌈2^64/side⌉: x/side is the high word of recip·x for 32-bit x
}

// torusMove is one entry of the move table: the i-th sorted neighbour of
// a vertex of the row's class, as a change to the vertex and to its
// coordinate along the dimension moved.
type torusMove struct {
	off int32 // neighbour - v
	dc  int32 // coordinate change: ±1, or ∓(side-1) across the wrap
	mid int32 // the row's class index with dim's digit set to interior
	dim int32
}

// newTorusKernel builds the kernel and its move table for the effective
// sides, given stride-1 dimension first.
func newTorusKernel(sides []int32) torusKernel {
	k := torusKernel{deg: int32(2 * len(sides)), dims: make([]torusDim, len(sides))}
	rows, stride := int32(1), int32(1)
	var strides [MaxTorusDims]int32
	for d, side := range sides {
		k.dims[d] = torusDim{side: side, pow3: rows, recip: ^uint64(0)/uint64(side) + 1}
		strides[d] = stride
		rows *= 3
		stride *= side
	}
	k.moves = make([]torusMove, int(rows)*int(k.deg))
	for cls := int32(0); cls < rows; cls++ {
		row := k.moves[int(cls*k.deg):int((cls+1)*k.deg)]
		for d, td := range k.dims {
			digit := cls / td.pow3 % 3
			mid := cls + (1-digit)*td.pow3
			last, s := td.side-1, strides[d]
			up := torusMove{off: s, dc: 1, mid: mid, dim: int32(d)}
			if digit == 2 {
				up.off, up.dc = -last*s, -last
			}
			down := torusMove{off: -s, dc: -1, mid: mid, dim: int32(d)}
			if digit == 0 {
				down.off, down.dc = last*s, last
			}
			row[2*d], row[2*d+1] = up, down
		}
		slices.SortFunc(row, func(a, b torusMove) int { return cmp.Compare(a.off, b.off) })
	}
	return k
}

// locate writes v's coordinates into coord and returns its class index.
func (k torusKernel) locate(v int32, coord *[MaxTorusDims]int32) int32 {
	x, cls := uint64(v), int32(0)
	for d, td := range k.dims {
		q, _ := bits.Mul64(td.recip, x)
		c := int32(x - q*uint64(td.side))
		x = q
		coord[d&(MaxTorusDims-1)] = c
		// The digit is (c > 0) + (c == side-1), computed from sign bits
		// so random coordinates cost no branch mispredictions.
		digit := int32(uint32(-c)>>31) + int32(1^uint32(c-td.side+1)>>31)
		cls += digit * td.pow3
	}
	return cls
}

// row returns the move-table row of v's class.
func (k torusKernel) row(v int32) []torusMove {
	var coord [MaxTorusDims]int32
	i := int(k.locate(v, &coord) * k.deg)
	return k.moves[i : i+int(k.deg)]
}

// Kind returns "torus".
func (torusKernel) Kind() string { return "torus" }

// Step returns a uniformly random torus neighbour of v.
func (k torusKernel) Step(v int32, r *rng.Source) int32 {
	return v + k.row(v)[r.Int31n(k.deg)].off
}

// WalkUntilVacant walks v to the first vacant vertex (or the budget),
// tracking v's coordinates and class index across the walk so each step
// is a draw and a table lookup. The generator state lives in locals for
// the whole walk.
func (k torusKernel) WalkUntilVacant(v int32, lazy bool, occ []uint8, epoch uint8, budget int64, r *rng.Source) (int32, int64) {
	if occ[v] != epoch {
		return v, 0
	}
	var coord, last, pow3 [MaxTorusDims]int32
	for d, td := range k.dims {
		last[d&(MaxTorusDims-1)], pow3[d&(MaxTorusDims-1)] = td.side-1, td.pow3
	}
	cls := k.locate(v, &coord)
	moves, deg := k.moves, int(k.deg)
	un := uint64(deg)
	thresh := -un % un
	st := r.State()
	var steps int64
	for occ[v] == epoch {
		var x uint64
		if lazy {
			st, x = st.Next()
		}
		if x&1 == 0 {
			// Intn(deg)'s draw law, with its rejection threshold hoisted.
			st, x = st.Next()
			hi, lo := bits.Mul64(x, un)
			for lo < thresh {
				st, x = st.Next()
				hi, lo = bits.Mul64(x, un)
			}
			m := moves[int(cls)*deg+int(hi)]
			v += m.off
			d := m.dim & (MaxTorusDims - 1) // the mask drops the bounds checks
			c := coord[d] + m.dc
			coord[d] = c
			cls = m.mid
			if c == 0 {
				cls -= pow3[d]
			}
			if c == last[d] {
				cls += pow3[d]
			}
		}
		steps++
		if steps >= budget {
			break
		}
	}
	r.SetState(st)
	return v, steps
}

// WalkUntilVacantSparse is WalkUntilVacant over the sparse occupancy
// backend: the same walk and the same draws, with the occ[v] == epoch
// test replaced by a probe of t for OccupancyFull. It is a body of its
// own because one body branching per step between the two tests slows
// the dense walk.
func (k torusKernel) WalkUntilVacantSparse(v int32, lazy bool, t *OccupancyTable, budget int64, r *rng.Source) (int32, int64) {
	if !t.Full(v) {
		return v, 0
	}
	var coord, last, pow3 [MaxTorusDims]int32
	for d, td := range k.dims {
		last[d&(MaxTorusDims-1)], pow3[d&(MaxTorusDims-1)] = td.side-1, td.pow3
	}
	cls := k.locate(v, &coord)
	moves, deg := k.moves, int(k.deg)
	un := uint64(deg)
	thresh := -un % un
	st := r.State()
	var steps int64
	for t.Full(v) {
		var x uint64
		if lazy {
			st, x = st.Next()
		}
		if x&1 == 0 {
			// Intn(deg)'s draw law, with its rejection threshold hoisted.
			st, x = st.Next()
			hi, lo := bits.Mul64(x, un)
			for lo < thresh {
				st, x = st.Next()
				hi, lo = bits.Mul64(x, un)
			}
			m := moves[int(cls)*deg+int(hi)]
			v += m.off
			d := m.dim & (MaxTorusDims - 1) // the mask drops the bounds checks
			c := coord[d] + m.dc
			coord[d] = c
			cls = m.mid
			if c == 0 {
				cls -= pow3[d]
			}
			if c == last[d] {
				cls += pow3[d]
			}
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
func (k torusKernel) StepLane(pos []int32, idx []int32, lazy bool, lane *rng.LaneSource) {
	stepLane(k, pos, idx, lazy, lane)
}

// StepEach advances the listed slots one torus move each, finding each
// slot's move-table row as Step does and drawing from r as a Step loop
// does (see Kernel.StepEach).
func (k torusKernel) StepEach(pos []int32, idx []int32, lazy bool, r *rng.Source) {
	un := uint64(k.deg)
	thresh := -un % un
	st := r.State()
	for _, j := range idx {
		var x uint64
		if lazy {
			st, x = st.Next()
		}
		if x&1 == 1 { // lazy stay
			continue
		}
		st, x = st.Next()
		hi, lo := bits.Mul64(x, un)
		for lo < thresh {
			st, x = st.Next()
			hi, lo = bits.Mul64(x, un)
		}
		pos[j] += k.row(pos[j])[hi].off
	}
	r.SetState(st)
}

func (k torusKernel) nth(v, i int32) int32 { return v + k.row(v)[i].off }

func (k torusKernel) degree(int32) int32 { return k.deg }

// circulantKernel is the implicit kernel for circulant graphs C_n(S):
// candidates v ± s (mod n) per offset s, one candidate when 2s = n,
// insertion-sorted on the stack.
type circulantKernel struct {
	n    int32
	offs []int32
	deg  int32
}

// Kind returns "circulant".
func (circulantKernel) Kind() string { return "circulant" }

// neighbors fills buf with the sorted neighbour list of v.
func (k circulantKernel) neighbors(v int32, buf []int32) {
	i := 0
	for _, s := range k.offs {
		up := v + s
		if up >= k.n {
			up -= k.n
		}
		insertSorted(buf, i, up)
		i++
		if 2*s == k.n {
			continue
		}
		down := v - s
		if down < 0 {
			down += k.n
		}
		insertSorted(buf, i, down)
		i++
	}
}

// Step returns a uniformly random circulant neighbour of v. Degree-one
// circulants (single offset 2s = n) move without consuming randomness,
// matching the generic walk's degree-one shortcut.
func (k circulantKernel) Step(v int32, r *rng.Source) int32 {
	var buf [2 * maxCirculantOffsets]int32
	k.neighbors(v, buf[:])
	if k.deg == 1 {
		return buf[0]
	}
	return buf[r.Int31n(k.deg)]
}

// WalkUntilVacant walks v to the first vacant vertex (or the budget).
func (k circulantKernel) WalkUntilVacant(v int32, lazy bool, occ []uint8, epoch uint8, budget int64, r *rng.Source) (int32, int64) {
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
func (k circulantKernel) StepLane(pos []int32, idx []int32, lazy bool, lane *rng.LaneSource) {
	stepLane(k, pos, idx, lazy, lane)
}

// StepEach advances the listed slots one circulant move each, drawing
// from r as a Step loop does (see Kernel.StepEach); degree-one
// circulants move without a draw.
func (k circulantKernel) StepEach(pos []int32, idx []int32, lazy bool, r *rng.Source) {
	un := uint64(k.deg)
	thresh := -un % un
	var buf [2 * maxCirculantOffsets]int32
	st := r.State()
	for _, j := range idx {
		var x uint64
		if lazy {
			st, x = st.Next()
		}
		if x&1 == 1 { // lazy stay
			continue
		}
		k.neighbors(pos[j], buf[:])
		if un == 1 {
			pos[j] = buf[0]
			continue
		}
		st, x = st.Next()
		hi, lo := bits.Mul64(x, un)
		for lo < thresh {
			st, x = st.Next()
			hi, lo = bits.Mul64(x, un)
		}
		pos[j] = buf[hi]
	}
	r.SetState(st)
}

func (k circulantKernel) nth(v, i int32) int32 {
	var buf [2 * maxCirculantOffsets]int32
	k.neighbors(v, buf[:])
	return buf[i]
}

func (k circulantKernel) degree(int32) int32 { return k.deg }

// rregKernel is the implicit kernel for seeded random-regular graphs:
// the neighbours of v via Hamiltonian cycle j are π_j(pos±1 mod n) where
// pos = π_j⁻¹(v), computed from the Feistel permutation and its inverse;
// candidates from all d/2 cycles are insertion-sorted on the stack
// (duplicates kept — see ImplicitRandomRegular on multigraph semantics).
type rregKernel struct {
	n     int32
	deg   int32
	perms []feistel
}

// Kind returns "rregular".
func (rregKernel) Kind() string { return "rregular" }

// neighbors fills buf with the sorted neighbour list of v.
func (k rregKernel) neighbors(v int32, buf []int32) {
	n := uint64(k.n)
	i := 0
	for p := range k.perms {
		pos := k.perms[p].invert(uint64(v))
		next := pos + 1
		if next == n {
			next = 0
		}
		prev := pos
		if prev == 0 {
			prev = n
		}
		prev--
		insertSorted(buf, i, int32(k.perms[p].apply(next)))
		i++
		insertSorted(buf, i, int32(k.perms[p].apply(prev)))
		i++
	}
}

// Step returns a uniformly random neighbour of v in the cycle union.
func (k rregKernel) Step(v int32, r *rng.Source) int32 {
	var buf [maxRRegularDegree]int32
	k.neighbors(v, buf[:])
	return buf[r.Int31n(k.deg)]
}

// WalkUntilVacant walks v to the first vacant vertex (or the budget).
func (k rregKernel) WalkUntilVacant(v int32, lazy bool, occ []uint8, epoch uint8, budget int64, r *rng.Source) (int32, int64) {
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
func (k rregKernel) StepLane(pos []int32, idx []int32, lazy bool, lane *rng.LaneSource) {
	stepLane(k, pos, idx, lazy, lane)
}

// StepEach advances the listed slots one cycle-union move each, drawing
// from r as a Step loop does (see Kernel.StepEach).
func (k rregKernel) StepEach(pos []int32, idx []int32, lazy bool, r *rng.Source) {
	un := uint64(k.deg)
	thresh := -un % un
	var buf [maxRRegularDegree]int32
	st := r.State()
	for _, j := range idx {
		var x uint64
		if lazy {
			st, x = st.Next()
		}
		if x&1 == 1 { // lazy stay
			continue
		}
		st, x = st.Next()
		hi, lo := bits.Mul64(x, un)
		for lo < thresh {
			st, x = st.Next()
			hi, lo = bits.Mul64(x, un)
		}
		k.neighbors(pos[j], buf[:])
		pos[j] = buf[hi]
	}
	r.SetState(st)
}

func (k rregKernel) nth(v, i int32) int32 {
	var buf [maxRRegularDegree]int32
	k.neighbors(v, buf[:])
	return buf[i]
}

func (k rregKernel) degree(int32) int32 { return k.deg }

// splitmix advances a SplitMix64 state by a lane index and finalizes it,
// deriving the per-cycle permutation seeds from the graph seed.
func splitmix(seed, lane uint64) uint64 {
	z := seed + (lane+1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
