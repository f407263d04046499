package graph

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"dispersion/internal/rng"
)

// WeightedCSR is an undirected graph with positive edge weights, walked
// under the weighted random-walk law P(u→v) ∝ w({u,v}). The structure is
// a plain CSR (sorted rows, simple graph); on top of it, Build constructs
// one Walker alias table per vertex, so a weighted neighbour draw costs
// O(1) — one bounded index draw plus one acceptance coin — regardless of
// degree, in both the scalar and the batched lane kernels.
//
// Alias-table layout: slot i of vertex v's adjacency row carries an
// acceptance probability prob[i] and an alternative vertex alt[i]; a draw
// picks a uniform slot i and takes the slot's own neighbour with
// probability prob[i], its alias otherwise. The tables are built by
// Vose's O(d) method at Build time and are exact up to float rounding.
//
// A weighted K_n (n >= 3) walks with weightedCompleteKernel, which reads
// only prob and alt: slot i of row v sits at v·(n−1)+i, and its own
// neighbour is i + (i >= v). The adjacency stays for Neighbors, CSR and
// HasEdge. The weights themselves are dropped once the alias tables are
// built: no walk reads them.
//
// WeightedCSR implements Graph, so every registered dispersion process
// runs on weighted backends unchanged.
type WeightedCSR struct {
	csr    *CSR
	prob   []float64 // alias acceptance probability per adjacency slot
	alt    []int32   // alias alternative vertex per adjacency slot
	kernel Kernel
}

var _ Graph = (*WeightedCSR)(nil)

// N returns the number of vertices.
func (g *WeightedCSR) N() int { return g.csr.N() }

// Name returns the human-readable family label.
func (g *WeightedCSR) Name() string { return g.csr.Name() }

// Degree returns the degree of vertex v.
func (g *WeightedCSR) Degree(v int) int { return g.csr.Degree(v) }

// Kernel returns the weighted alias step kernel selected at Build time.
func (g *WeightedCSR) Kernel() Kernel { return g.kernel }

// IsConnected reports whether the graph is connected (weights never
// disconnect: they are strictly positive).
func (g *WeightedCSR) IsConnected() bool { return g.csr.IsConnected() }

// HasEdge reports whether {u, v} is an edge.
func (g *WeightedCSR) HasEdge(u, v int) bool { return g.csr.HasEdge(u, v) }

// CSR returns the structural (unweighted) twin sharing this graph's
// vertex set and edges: what the spectral and exact analytics operate on
// when they ignore weights, and what Materialize returns for weighted
// backends.
func (g *WeightedCSR) CSR() *CSR { return g.csr }

// WeightedBuilder accumulates weighted edges and produces an immutable
// WeightedCSR. Structural validity (range, self-loops, duplicates) is
// checked exactly as Builder does; weights must additionally be positive
// and finite.
type WeightedBuilder struct {
	n     int
	name  string
	edges []weightedEdge
}

type weightedEdge struct {
	u, v int32
	w    float64
}

// NewWeightedBuilder returns a WeightedBuilder for a graph with n
// vertices.
func NewWeightedBuilder(name string, n int) *WeightedBuilder {
	return &WeightedBuilder{n: n, name: name}
}

// AddEdge records the undirected edge {u, v} with weight w. Endpoint
// order is irrelevant; validity is checked at Build time.
func (b *WeightedBuilder) AddEdge(u, v int, w float64) {
	b.edges = append(b.edges, weightedEdge{u: int32(u), v: int32(v), w: w})
}

// Build validates the accumulated weighted edges, constructs the CSR
// structure, aligns the weights with the sorted rows, and builds the
// per-vertex Walker alias tables.
func (b *WeightedBuilder) Build() (*WeightedCSR, error) {
	sb := NewBuilder(b.name, b.n)
	for _, e := range b.edges {
		if err := checkWeight(int(e.u), int(e.v), e.w); err != nil {
			return nil, err
		}
		sb.AddEdge(int(e.u), int(e.v))
	}
	csr, err := sb.Build()
	if err != nil {
		return nil, err
	}
	// Align each edge's weight with both sorted adjacency rows.
	w := make([]float64, len(csr.adj))
	for _, e := range b.edges {
		setWeight(csr, w, e.u, e.v, e.w)
		setWeight(csr, w, e.v, e.u, e.w)
	}
	return newWeightedCSR(csr, w), nil
}

// newWeightedCSR returns csr walked under the weights w, one per adjacency
// slot: it builds every vertex's alias table from w, which it does not
// keep, and selects the kernel: the closed-form weightedCompleteKernel
// when the structure is K_n with n >= 3, as the CSR's own kernel says,
// and the generic alias kernel otherwise. (K_2's degree-1 moves draw
// nothing, which the generic kernel already handles.)
func newWeightedCSR(csr *CSR, w []float64) *WeightedCSR {
	g := &WeightedCSR{
		csr:  csr,
		prob: make([]float64, len(csr.adj)),
		alt:  make([]int32, len(csr.adj)),
	}
	for v := 0; v < g.N(); v++ {
		g.buildAlias(v, w)
	}
	if ck, ok := g.csr.kernel.(completeKernel); ok && ck.n >= 3 {
		g.kernel = weightedCompleteKernel{prob: g.prob, alt: g.alt, complete: ck}
	} else {
		g.kernel = weightedKernel{g: g}
	}
	return g
}

// checkWeight rejects an edge weight that is not positive and finite.
func checkWeight(u, v int, w float64) error {
	if !(w > 0) || math.IsInf(w, 1) {
		return fmt.Errorf("graph: edge {%d,%d} weight %v (want positive and finite)", u, v, w)
	}
	return nil
}

// setWeight stores x in w's slot for u's row entry of neighbour v (the
// row is sorted, so the slot is found by binary search).
func setWeight(csr *CSR, w []float64, u, v int32, x float64) {
	off := csr.offsets[u]
	ns := csr.adj[off:csr.offsets[u+1]]
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	w[off+int32(i)] = x
}

// buildAlias constructs vertex v's Walker alias table from the weights w
// by Vose's method: scale the row's weights to mean 1, then pair each
// deficit slot with a surplus slot so every slot resolves a draw with at
// most one comparison.
func (g *WeightedCSR) buildAlias(v int, w []float64) {
	off := int(g.csr.offsets[v])
	end := int(g.csr.offsets[v+1])
	d := end - off
	if d == 0 {
		return
	}
	var sum float64
	for _, x := range w[off:end] {
		sum += x
	}
	scaled := make([]float64, d)
	small := make([]int32, 0, d)
	large := make([]int32, 0, d)
	for i := 0; i < d; i++ {
		scaled[i] = w[off+i] * float64(d) / sum
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		g.prob[off+int(s)] = scaled[s]
		g.alt[off+int(s)] = g.csr.adj[off+int(l)]
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Leftovers are exactly 1 up to rounding; their alias is never taken.
	for _, i := range large {
		g.prob[off+int(i)] = 1
		g.alt[off+int(i)] = g.csr.adj[off+int(i)]
	}
	for _, i := range small {
		g.prob[off+int(i)] = 1
		g.alt[off+int(i)] = g.csr.adj[off+int(i)]
	}
}

// weightedKernel is the Walker alias step kernel: a weighted neighbour
// draw is one bounded slot draw plus one acceptance coin, so a step
// consumes exactly two variates at degree >= 2 (none at degree one, like
// every kernel). It reads offsets, prob and adj or alt per step; a
// weighted K_n takes weightedCompleteKernel instead, which reads only the
// alias tables.
type weightedKernel struct{ g *WeightedCSR }

// Kind returns "walias".
func (weightedKernel) Kind() string { return "walias" }

// Step returns a w-weighted random neighbour of v.
func (k weightedKernel) Step(v int32, r *rng.Source) int32 {
	g := k.g
	off := g.csr.offsets[v]
	d := g.csr.offsets[v+1] - off
	if d == 1 {
		return g.csr.adj[off]
	}
	i := off + r.Int31n(d)
	if r.Float64() < g.prob[i] {
		return g.csr.adj[i]
	}
	return g.alt[i]
}

// WalkUntilVacant walks v to the first vacant vertex (or the budget)
// under the weighted walk law.
func (k weightedKernel) WalkUntilVacant(v int32, lazy bool, occ []uint8, epoch uint8, budget int64, r *rng.Source) (int32, int64) {
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

// StepLane advances the listed lane slots one weighted alias move each,
// with the same slot draw + acceptance coin law as Step on the lane
// streams.
func (k weightedKernel) StepLane(pos []int32, idx []int32, lazy bool, lane *rng.LaneSource) {
	g := k.g
	offsets, adj := g.csr.offsets, g.csr.adj
	for _, j := range idx {
		sj := int(j)
		if lazy && lane.Uint64(sj)&1 == 1 {
			continue
		}
		v := pos[j]
		off := offsets[v]
		d := offsets[v+1] - off
		if d == 1 {
			pos[j] = adj[off]
			continue
		}
		un := uint64(d)
		hi, lo := bits.Mul64(lane.Uint64(sj), un)
		if lo < un {
			thresh := -un % un
			for lo < thresh {
				hi, lo = bits.Mul64(lane.Uint64(sj), un)
			}
		}
		i := off + int32(hi)
		// Load both outcomes unconditionally and select: the three table
		// reads (prob, adj, alt) issue in parallel with no data-dependent
		// branch between them, so misses from different lane slots overlap
		// — on multi-MB alias tables this memory-level parallelism is the
		// lane's whole advantage over the scalar walk's serial miss chain.
		accept, alt := adj[i], g.alt[i]
		to := alt
		if float64(lane.Uint64(sj)>>11)*0x1p-53 < g.prob[i] {
			to = accept
		}
		pos[j] = to
	}
}

// StepEach advances the listed slots one weighted alias move each,
// drawing from r as a Step loop does (see Kernel.StepEach): a slot draw
// and an acceptance coin, none at degree one.
func (k weightedKernel) StepEach(pos []int32, idx []int32, lazy bool, r *rng.Source) {
	g := k.g
	offsets, adj, prob, alt := g.csr.offsets, g.csr.adj, g.prob, g.alt
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
		off := offsets[v]
		d := offsets[v+1] - off
		if d == 1 {
			pos[j] = adj[off]
			continue
		}
		// Intn(d)'s draw law, then Float64's.
		un := uint64(d)
		st, x = st.Next()
		hi, lo := bits.Mul64(x, un)
		if lo < un {
			thresh := -un % un
			for lo < thresh {
				st, x = st.Next()
				hi, lo = bits.Mul64(x, un)
			}
		}
		i := off + int32(hi)
		st, x = st.Next()
		if float64(x>>11)*0x1p-53 < prob[i] {
			pos[j] = adj[i]
		} else {
			pos[j] = alt[i]
		}
	}
	r.SetState(st)
}

// weightedCompleteKernel is the alias kernel of a weighted K_n with
// n >= 3. Row v of the alias tables starts at v·(n−1), and slot i's own
// neighbour is K_n's closed form complete.nth(v, i), so a step reads
// prob[s] and, only when the coin rejects, alt[s]; it draws exactly what
// weightedKernel draws (Int31n(n−1), then Float64).
type weightedCompleteKernel struct {
	prob     []float64
	alt      []int32
	complete completeKernel
}

// Kind returns "wcomplete".
func (weightedCompleteKernel) Kind() string { return "wcomplete" }

// Step returns a w-weighted random neighbour of v.
func (k weightedCompleteKernel) Step(v int32, r *rng.Source) int32 {
	d := k.complete.n - 1
	i := r.Int31n(d)
	s := v*d + i
	if r.Float64() < k.prob[s] {
		return k.complete.nth(v, i)
	}
	return k.alt[s]
}

// WalkUntilVacant walks v to the first vacant vertex (or the budget),
// with the generator state in locals for the whole walk (see
// cycleKernel.WalkUntilVacant) and Intn(n−1)'s rejection threshold
// hoisted. The acceptance coin stays a branch: the CPU speculates down the
// common accepted path, whose next vertex is arithmetic, and starts the
// next step's loads before prob[s] arrives. A select would make every step
// wait for the prob and alt loads.
func (k weightedCompleteKernel) WalkUntilVacant(v int32, lazy bool, occ []uint8, epoch uint8, budget int64, r *rng.Source) (int32, int64) {
	prob, alt, d := k.prob, k.alt, k.complete.n-1
	un := uint64(d)
	thresh := -un % un
	st := r.State()
	var steps int64
	for occ[v] == epoch {
		var x uint64
		if lazy {
			st, x = st.Next()
		}
		if x&1 == 0 {
			st, x = st.Next()
			hi, lo := bits.Mul64(x, un)
			for lo < thresh {
				st, x = st.Next()
				hi, lo = bits.Mul64(x, un)
			}
			i := int32(hi)
			s := v*d + i
			st, x = st.Next()
			if float64(x>>11)*0x1p-53 < prob[s] {
				v = k.complete.nth(v, i)
			} else {
				v = alt[s]
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

// laneChunk is the number of listed slots weightedCompleteKernel.StepLane
// draws for before it gathers; its stack arrays hold one chunk.
const laneChunk = 64

// StepLane advances the listed lane slots one weighted alias move each, in
// two passes over chunks of up to laneChunk slots. The first pass makes
// every draw — lazy coin, slot index, acceptance coin — into stack arrays;
// the second gathers prob and alt and selects each slot's vertex. Each
// slot draws from its own stream in the order Step's law fixes, so
// splitting the passes changes no draw. The gather loop is short and
// branch-free (the select compiles to a conditional move), so the CPU
// keeps more slots' cache misses in flight than when each slot's draws
// sit between its loads and the next slot's.
func (k weightedCompleteKernel) StepLane(pos []int32, idx []int32, lazy bool, lane *rng.LaneSource) {
	prob, alt, d := k.prob, k.alt, k.complete.n-1
	un := uint64(d)
	thresh := -un % un
	var (
		js   [laneChunk]int32   // slot of each move
		at   [laneChunk]int32   // its alias-table index v·(n−1)+i
		nb   [laneChunk]int32   // that table slot's own neighbour
		coin [laneChunk]float64 // its acceptance coin
	)
	for len(idx) > 0 {
		chunk := idx[:min(len(idx), laneChunk)]
		idx = idx[len(chunk):]
		m := 0
		for _, j := range chunk {
			sj := int(j)
			if lazy && lane.Uint64(sj)&1 == 1 {
				continue
			}
			hi, lo := bits.Mul64(lane.Uint64(sj), un)
			for lo < thresh {
				hi, lo = bits.Mul64(lane.Uint64(sj), un)
			}
			v, i := pos[j], int32(hi)
			t := m & (laneChunk - 1) // m < laneChunk; the mask drops the bounds checks
			js[t], at[t], nb[t] = j, v*d+i, k.complete.nth(v, i)
			coin[t] = float64(lane.Uint64(sj)>>11) * 0x1p-53
			m++
		}
		for t := range js[:m] {
			s := at[t]
			to, accept := alt[s], nb[t]
			if coin[t] < prob[s] {
				to = accept
			}
			pos[js[t]] = to
		}
	}
}

// StepEach advances the listed slots one weighted alias move each,
// drawing from r as a Step loop does (see Kernel.StepEach), with
// Intn(n−1)'s rejection threshold hoisted.
func (k weightedCompleteKernel) StepEach(pos []int32, idx []int32, lazy bool, r *rng.Source) {
	prob, alt, d := k.prob, k.alt, k.complete.n-1
	un := uint64(d)
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
		v, i := pos[j], int32(hi)
		s := v*d + i
		st, x = st.Next()
		if float64(x>>11)*0x1p-53 < prob[s] {
			pos[j] = k.complete.nth(v, i)
		} else {
			pos[j] = alt[s]
		}
	}
	r.SetState(st)
}

// WeightedComplete returns K_n with edge weight ((u+1)(v+1))^alpha — the
// degree-biased family: the walk leaves any vertex toward v with
// probability proportional to (v+1)^alpha, so alpha > 0 drags particles
// toward high labels, alpha < 0 toward low ones, and alpha = 0 recovers
// the uniform walk on K_n. n >= 2; alpha must be finite.
func WeightedComplete(n int, alpha float64) (*WeightedCSR, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: weighted complete requires n >= 2, got %d", n)
	}
	if math.IsNaN(alpha) || math.IsInf(alpha, 0) {
		return nil, fmt.Errorf("graph: weighted complete alpha %v (want finite)", alpha)
	}
	csr := completeCSR(fmt.Sprintf("wcomplete-%d-a%g", n, alpha), n)
	// Each edge's weight is computed once, in (u, v) order, and stored in
	// both sorted rows: row u lists v > u at slot v−1, row v lists u at
	// slot u.
	ws := make([]float64, len(csr.adj))
	d := n - 1
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			w := math.Pow(float64(u+1)*float64(v+1), alpha)
			if err := checkWeight(u, v, w); err != nil {
				return nil, err
			}
			ws[u*d+v-1] = w
			ws[v*d+u] = w
		}
	}
	return newWeightedCSR(csr, ws), nil
}

// WeightedCycle returns C_n with alternating edge weights: edge
// {v, v+1 mod n} has weight bias when v is odd and 1 when v is even, so
// the walk is pulled across the heavy edges. bias = 1 recovers the
// uniform cycle walk. n >= 3; bias must be positive and finite.
func WeightedCycle(n int, bias float64) (*WeightedCSR, error) {
	if n < 3 {
		return nil, fmt.Errorf("graph: weighted cycle requires n >= 3, got %d", n)
	}
	if !(bias > 0) || math.IsInf(bias, 1) {
		return nil, fmt.Errorf("graph: weighted cycle bias %v (want positive and finite)", bias)
	}
	b := NewWeightedBuilder(fmt.Sprintf("wcycle-%d-b%g", n, bias), n)
	for v := 0; v < n; v++ {
		w := 1.0
		if v%2 == 1 {
			w = bias
		}
		b.AddEdge(v, (v+1)%n, w)
	}
	return b.Build()
}
