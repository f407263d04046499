// Package core implements the paper's dispersion processes on finite
// graphs: Sequential-IDLA, Parallel-IDLA, Uniform-IDLA, their lazy
// variants, and the continuous-time Sequential and Uniform (CTU) processes
// of Section 4.3. All processes share the IDLA rule: n particles start at
// an origin vertex and each performs a random walk until it first stands on
// an unoccupied vertex, where it settles. The dispersion time is the
// maximum number of steps performed by any particle (equivalently, for the
// parallel process, the first round at which every vertex hosts a
// particle).
//
// Each process has one entry point, an *Into function (SequentialInto,
// ParallelInto, ...) that writes into a caller-owned Result and draws its
// working buffers from a per-worker Scratch: the zero-allocation hot path
// the public engine drives. A nil Scratch allocates a transient one for a
// one-off run; the RNG stream consumed is the same either way, so a
// reused Scratch changes no sample path.
//
// A settlement law (LaneVariant: the standard rule, Proposition A.1's
// geometric and threshold rules, or k-per-vertex capacity) is resolved
// once per run from the Options. The four Sequential-family processes run
// through one particle loop under their law, and Parallel and
// CapacityParallel through one round loop; the batched lane (RunLane)
// runs the standard law alone. Every walk step dispatches through the step
// Kernel the graph selected at build time (closed-form for arithmetic
// families, fused CSR otherwise), which is likewise draw-for-draw
// identical to the generic CSR lookup, at the coarsest grain the process
// allows: a Sequential particle walks to its vacant standing in one
// WalkUntilVacant call, a Parallel round moves every unsettled particle
// in one StepEach call (and its last particle walks alone, like a
// Sequential one), and Uniform and the continuous-time clock move one
// particle per Step. The continuous-time Uniform process re-rings a
// particle by replacing its event-heap entry in one sift.
package core

import (
	"fmt"
	"math"

	"dispersion/internal/graph"
	"dispersion/internal/rng"
)

// SettleRule decides whether a particle standing on a vacant vertex
// settles there. The standard IDLA rule settles always; Proposition A.1
// studies a modified rule on the clique-with-hair showing that letting
// particles walk longer can *decrease* the dispersion time (no
// least-action principle). The step argument is the number of steps the
// particle has performed so far.
type SettleRule func(v int32, step int64) bool

// Options configures a dispersion process run.
type Options struct {
	// Lazy makes every particle move as a lazy random walk (stay with
	// probability 1/2). Theorem 4.3: this doubles dispersion up to 1+o(1).
	Lazy bool
	// Record keeps each particle's full trajectory (the rows of the
	// paper's block representation). Memory is O(total steps).
	Record bool
	// RandomPriority resolves same-round settlement conflicts in the
	// Parallel process by a uniformly random priority permutation instead
	// of least-index (the σ(L) device in the proof of Theorem 4.2).
	RandomPriority bool
	// Rule vetoes settlements of the standard Sequential process
	// (Proposition A.1): a particle standing on a vacant vertex settles
	// only if Rule accepts, and otherwise moves on. Nil means the standard
	// rule: settle immediately. Only Sequential and CTSequential (and so
	// the "sequential" and "ct-sequential" processes and their lazy
	// variants) honour it; every other process ignores it, and RunLane
	// rejects it.
	Rule SettleRule
	// MaxSteps aborts a run whose total step count exceeds this bound;
	// zero means no bound. Guards against misconfigured experiments.
	MaxSteps int64
	// Particles is the number of particles to disperse (the Section 6.2
	// variant with fewer particles than sites). Zero means the default:
	// n for the unit-capacity processes, Capacity·n for the capacity
	// processes. Values above the total capacity are rejected: the
	// surplus could never settle.
	Particles int
	// RandomOrigins samples each particle's start vertex uniformly at
	// random instead of using the common origin (the Section 6.2 variant
	// with random origins). Under the standard rule a particle starting
	// on an unoccupied vertex settles there instantly with zero steps;
	// the settle-rule processes instead apply their rule to that step-0
	// standing (a geom particle accepts it with probability q, a
	// threshold particle not before step T).
	RandomOrigins bool
	// SettleParam parameterizes the registered settle-rule processes of
	// Proposition A.1: the per-visit settle probability q of
	// SequentialGeom and the minimum step count T of SequentialThreshold.
	// Zero leaves each process its documented default. The standard
	// processes ignore it.
	SettleParam float64
	// Capacity is the number of particles each vertex can host in the
	// capacity processes (CapacitySequential, CapacityParallel): a
	// particle settles on a vertex holding fewer than Capacity settled
	// particles. Zero means DefaultCapacity. The unit-capacity processes
	// ignore it.
	Capacity int
	// Capacities gives every vertex its own capacity in the capacity
	// processes: vertex v hosts up to Capacities[v] settled particles. The
	// vector must have one entry per vertex, each in [1, maxCapacity], and
	// is mutually exclusive with Capacity. By default Sum(Capacities)
	// particles disperse; Result.Capacity reports the vector's maximum.
	// Nil selects the uniform law.
	Capacities []int
	// Batch selects the batched execution mode and caps its width: under
	// the standard law on a table-backed kernel the engine steps blocks of
	// at most Batch trials through a SoA lane (see LaneWidth), and every
	// other batched job runs the unbatched path. Zero (the default) is the
	// unbatched path. A batched trial draws its scalar stream in the
	// scalar order (see rng's stream law), so Batch changes no result.
	// Only the Sequential-family processes have a batched form.
	Batch int
}

// numParticles resolves Options.Particles against the graph size.
func (o *Options) numParticles(n int) (int, error) {
	k := o.Particles
	if k == 0 {
		k = n
	}
	if k < 1 || k > n {
		return 0, fmt.Errorf("core: %d particles on %d vertices (want 1..n)", k, n)
	}
	return k, nil
}

// DefaultCapacity is the per-vertex capacity the capacity processes use
// when Options.Capacity is zero: the smallest value whose behaviour is not
// the unit-capacity Sequential/Parallel process.
const DefaultCapacity = 2

// maxCapacity bounds Options.Capacity so per-vertex counts fit the 24 bits
// the Scratch count array reserves next to its epoch stamp.
const maxCapacity = 1 << 20

// capPlan is the resolved per-vertex capacity law of a run: either a
// uniform capacity (1 for the unit-capacity laws) or the
// Options.Capacities vector.
type capPlan struct {
	// uniform is the capacity every vertex shares, or the vector's maximum
	// for vector runs (what Result.Capacity reports either way).
	uniform int
	// caps is the per-vertex vector; nil selects the uniform law.
	caps []int
	// total is the summed capacity — the default (and maximum) particle
	// count.
	total int
}

// at returns vertex v's capacity under the plan.
func (p *capPlan) at(v int32) int {
	if p.caps != nil {
		return p.caps[v]
	}
	return p.uniform
}

// capacityPlan resolves Options.Capacity/Capacities for a graph with n
// vertices.
func (o *Options) capacityPlan(n int) (capPlan, error) {
	if len(o.Capacities) > 0 {
		if o.Capacity != 0 {
			return capPlan{}, fmt.Errorf("core: Capacity and Capacities are mutually exclusive")
		}
		if len(o.Capacities) != n {
			return capPlan{}, fmt.Errorf("core: %d per-vertex capacities for %d vertices", len(o.Capacities), n)
		}
		p := capPlan{caps: o.Capacities}
		for v, c := range o.Capacities {
			if c < 1 || c > maxCapacity {
				return capPlan{}, fmt.Errorf("core: vertex %d capacity %d (want 1..%d)", v, c, maxCapacity)
			}
			p.total += c
			if c > p.uniform {
				p.uniform = c
			}
		}
		return p, nil
	}
	c := o.Capacity
	if c == 0 {
		c = DefaultCapacity
	}
	if c < 1 || c > maxCapacity {
		return capPlan{}, fmt.Errorf("core: per-vertex capacity %d (want 1..%d)", c, maxCapacity)
	}
	return capPlan{uniform: c, total: c * n}, nil
}

// numParticlesCap resolves Options.Particles against the plan's total
// capacity. Zero means fill every vertex to capacity.
func (o *Options) numParticlesCap(n int, p capPlan) (int, error) {
	k := o.Particles
	if k == 0 {
		k = p.total
	}
	if k < 1 || k > p.total {
		return 0, fmt.Errorf("core: %d particles on %d vertices of total capacity %d (want 1..%d)", k, n, p.total, p.total)
	}
	return k, nil
}

// law is a run's resolved settlement law: how many particles disperse, how
// many each vertex hosts, and which vacant standings a particle accepts.
type law struct {
	k    int
	plan capPlan
	// q is LaneGeom's per-visit acceptance probability.
	q float64
	// T is LaneThreshold's count of forced moves, blind to occupancy.
	T int64
	// rule is Options.Rule; only LaneStandard honours it.
	rule SettleRule
}

// law resolves the options under the settlement law variant on a graph
// with n vertices. The scalar Sequential and Parallel loops and laneLaw
// resolve their run through it; only laneLaw can pass a variant outside
// the four laws.
func (o *Options) law(variant LaneVariant, n int) (law, error) {
	lw := law{plan: capPlan{uniform: 1, total: n}}
	var err error
	switch variant {
	case LaneStandard:
		lw.k, err = o.numParticles(n)
		lw.rule = o.Rule
	case LaneGeom:
		if lw.k, err = o.numParticles(n); err == nil {
			lw.q, err = o.geomParam()
		}
	case LaneThreshold:
		if lw.k, err = o.numParticles(n); err == nil {
			lw.T, err = o.thresholdParam(n)
		}
	case LaneCapacity:
		if lw.plan, err = o.capacityPlan(n); err == nil {
			lw.k, err = o.numParticlesCap(n, lw.plan)
		}
	default:
		return law{}, fmt.Errorf("core: process has no batched form (WithBatch covers the Sequential-family processes)")
	}
	return lw, err
}

// startVertex returns the origin for the next particle under the options.
func (o *Options) startVertex(origin, n int, r *rng.Source) int32 {
	if o.RandomOrigins {
		return int32(r.Intn(n))
	}
	return int32(origin)
}

// Result reports the outcome of a single dispersion-process run.
type Result struct {
	// Dispersion is the maximum number of random-walk steps performed by
	// any particle: the paper's τ. For the Parallel process this equals
	// the number of rounds until the last settlement.
	Dispersion int64
	// TotalSteps is the total number of jumps performed by all particles.
	// Theorem 4.1 proves this has the same distribution in the Sequential
	// and Parallel processes.
	TotalSteps int64
	// Steps[i] is the number of steps performed by particle i (in start
	// order for Sequential; fixed labels for Parallel/Uniform).
	Steps []int64
	// SettledAt[i] is the vertex where particle i settled.
	SettledAt []int32
	// SettleOrder lists particle indices in settlement order.
	SettleOrder []int32
	// SettleClock[k] is the process time at which the (k+1)-th settlement
	// happened: round number for Parallel, global tick for Uniform,
	// real time (as float bits via ClockTimes) for continuous processes,
	// cumulative step count for Sequential.
	SettleClock []int64
	// Trajectories[i] is particle i's visited vertex sequence including
	// the origin (so len = Steps[i]+1); nil unless Options.Record.
	Trajectories [][]int32
	// Truncated reports that Options.MaxSteps fired; all counts are then
	// lower bounds.
	Truncated bool
	// Capacity is the per-vertex capacity the run executed under: the
	// resolved c of a capacity process, 1 for the unit-capacity
	// processes.
	Capacity int
}

// validateRun checks the (graph, origin) inputs shared by every process.
// Connectivity is cached at graph build time, so the check is cheap enough
// for the per-trial hot path.
func validateRun(g graph.Graph, origin int) error {
	if origin < 0 || origin >= g.N() {
		return fmt.Errorf("core: origin %d out of range [0,%d)", origin, g.N())
	}
	if !g.IsConnected() {
		return fmt.Errorf("core: graph %s is not connected", g.Name())
	}
	return nil
}

// step advances one particle one move under the configured walk law,
// dispatching through the graph's step kernel.
func step(kern graph.Kernel, v int32, lazy bool, r *rng.Source) int32 {
	if lazy && r.Bool() {
		return v
	}
	return kern.Step(v, r)
}

// SequentialInto runs the Sequential-IDLA process on g from origin:
// particles move one at a time, each walking until it settles, and only
// then does the next particle start. Particle 0 settles at the origin
// instantly.
//
// It writes into the caller-owned res, fully overwritten with its backing
// arrays reused, and draws its occupancy map from s (nil allocates a
// transient one).
func SequentialInto(g graph.Graph, origin int, opt Options, r *rng.Source, s *Scratch, res *Result) error {
	return sequential(g, origin, opt, LaneStandard, r, s, res)
}

// sequential runs every Sequential-family process: one particle loop
// under the settlement law variant. Each particle in turn owes the law's forced
// moves (T of them under LaneThreshold), then walks to a vacant standing
// and puts it to the law's acceptance test: a geometric coin, or
// Options.Rule under LaneStandard. A rejected standing owes one forced
// move and the walk goes on. An accepted one is settled: it counts towards
// the vertex's capacity, and a vertex that fills is marked occupied, so
// every walk tests the same occupancy map whatever the law.
func sequential(g graph.Graph, origin int, opt Options, variant LaneVariant, r *rng.Source, s *Scratch, res *Result) error {
	n := g.N()
	lw, err := opt.law(variant, n)
	if err != nil {
		return err
	}
	if err := validateRun(g, origin); err != nil {
		return err
	}
	if s == nil {
		s = NewScratch()
	}
	res.reset(lw.k, opt.Record)
	res.Capacity = lw.plan.uniform
	s.beginRun(n, lw.k)
	counting := variant == LaneCapacity
	if counting {
		s.counts(n)
	}
	geom, rule := variant == LaneGeom, lw.rule
	fused := !s.sparse && !opt.Record
	kern := g.Kernel()
	for i := 0; i < lw.k; i++ {
		v := opt.startVertex(origin, n, r)
		var steps int64
		var traj *[]int32
		if opt.Record {
			res.Trajectories[i] = []int32{v}
			traj = &res.Trajectories[i]
		}
		for owed := lw.T; ; owed = 1 {
			budget := int64(math.MaxInt64)
			if opt.MaxSteps > 0 {
				budget = opt.MaxSteps - res.TotalSteps
			}
			var walked int64
			if owed == 0 && fused {
				v, walked = kern.WalkUntilVacant(v, opt.Lazy, s.dense.occ, s.dense.epoch, budget, r)
			} else {
				v, walked = s.walk(kern, v, owed, opt.Lazy, budget, r, traj)
			}
			steps += walked
			res.TotalSteps += walked
			if walked >= budget {
				// The MaxSteps guard fired mid-walk: the particle does not
				// settle even if its last move reached a vacant vertex.
				res.Truncated = true
				res.Steps[i] = steps
				return nil
			}
			// The acceptance coin is drawn only on vacant standings.
			if !(geom && r.Float64() >= lw.q || rule != nil && !rule(v, steps)) {
				break
			}
		}
		if !counting || s.fill(v, lw.plan.at(v)) {
			s.occupy(v)
		}
		res.settle(i, v, steps, res.TotalSteps)
	}
	return nil
}

// ParallelInto runs the Parallel-IDLA process on g from origin: all n
// particles start at the origin at round 0 (one settles there instantly),
// then in every round all unsettled particles move simultaneously; on each
// vertex that is unoccupied at the start of the round, the
// highest-priority arriving particle settles. Priority is least index, or
// a uniform permutation under Options.RandomPriority.
//
// It writes into the caller-owned res, fully overwritten with its backing
// arrays reused, and draws its occupancy map and position/priority buffers
// from s (nil allocates a transient one).
func ParallelInto(g graph.Graph, origin int, opt Options, r *rng.Source, s *Scratch, res *Result) error {
	return parallel(g, origin, opt, LaneStandard, r, s, res)
}

// parallel runs both Parallel-family processes: one round loop under the
// settlement law variant (LaneStandard or LaneCapacity). Each round first
// resolves settlements in priority order, each arrival taking a vertex that
// is not yet full, then moves every unsettled particle once. Round 0 only
// resolves: with a common origin, the origin's capacity worth of particles
// settles there instantly. A vertex that fills is marked occupied, so the
// resolution tests the same occupancy map under either law.
//
// Every unsettled particle moves every round, so each has walked round
// steps; its count is written when it settles or the run truncates. One
// Kernel.StepEach call moves them all, drawing in priority order as a Step
// loop would. Once a single particle is left, nothing else moves and the
// occupancy map no longer changes, so it finishes in one Scratch.walk,
// whose every move is one round and draws what that round would.
func parallel(g graph.Graph, origin int, opt Options, variant LaneVariant, r *rng.Source, s *Scratch, res *Result) error {
	n := g.N()
	lw, err := opt.law(variant, n)
	if err != nil {
		return err
	}
	if err := validateRun(g, origin); err != nil {
		return err
	}
	if s == nil {
		s = NewScratch()
	}
	k := lw.k
	res.reset(k, opt.Record)
	res.Capacity = lw.plan.uniform
	s.beginRun(n, k)
	counting := variant == LaneCapacity
	if counting {
		s.counts(n)
	}
	kern := g.Kernel()

	// Priority order for settlement conflicts: least index, or a uniform
	// permutation under RandomPriority. Unsettled particles stay listed in
	// this order, so the list doubles as the active set.
	s.prio = growI32(s.prio, k)
	active := s.prio
	for i := range active {
		active[i] = int32(i)
	}
	if opt.RandomPriority {
		r.Shuffle(len(active), func(i, j int) { active[i], active[j] = active[j], active[i] })
	}
	s.pos = growI32(s.pos, k)
	pos := s.pos
	for i := range pos {
		pos[i] = opt.startVertex(origin, n, r)
	}
	if opt.Record {
		for i := 0; i < k; i++ {
			res.Trajectories[i] = []int32{pos[i]}
		}
	}
	dense, occ, epoch := !s.sparse, s.dense.occ, s.dense.epoch
	var round int64
	for {
		keep := active[:0]
		for _, p := range active {
			v := pos[p]
			if dense && occ[v] == epoch || !dense && s.table.Full(v) {
				keep = append(keep, p)
				continue
			}
			if !counting || s.fill(v, lw.plan.at(v)) {
				s.occupy(v)
			}
			res.settle(int(p), v, round, round)
		}
		active = keep
		if opt.MaxSteps > 0 && res.TotalSteps >= opt.MaxSteps {
			for _, p := range active {
				res.Steps[p] = round
			}
			res.Truncated = true
			return nil
		}
		if len(active) == 0 {
			return nil
		}
		if len(active) == 1 {
			p := active[0]
			budget := int64(math.MaxInt64)
			if opt.MaxSteps > 0 {
				budget = opt.MaxSteps - res.TotalSteps
			}
			var traj *[]int32
			if opt.Record {
				traj = &res.Trajectories[p]
			}
			var walked int64
			pos[p], walked = s.walk(kern, pos[p], 1, opt.Lazy, budget, r, traj)
			round += walked
			res.TotalSteps += walked
			continue
		}
		// Every unsettled particle moves simultaneously.
		round++
		kern.StepEach(pos, active, opt.Lazy, r)
		res.TotalSteps += int64(len(active))
		if opt.Record {
			for _, p := range active {
				res.Trajectories[p] = append(res.Trajectories[p], pos[p])
			}
		}
	}
}

// UniformInto runs the (discrete) Uniform-IDLA of Section 4.2: at every
// tick a uniformly random unsettled particle moves one step, settling if
// it lands on an unoccupied vertex. The returned SettleClock counts ticks
// restricted to unsettled particles, which is the process's natural
// filtration; the paper's lazier convention (ticks hitting settled
// particles are wasted) changes only the clock, not any trajectory, and is
// recovered by the continuous-time process below.
//
// It writes into the caller-owned res, fully overwritten with its backing
// arrays reused, and draws its occupancy map and position/active buffers
// from s (nil allocates a transient one).
func UniformInto(g graph.Graph, origin int, opt Options, r *rng.Source, s *Scratch, res *Result) error {
	n := g.N()
	k, err := opt.numParticles(n)
	if err != nil {
		return err
	}
	if err := validateRun(g, origin); err != nil {
		return err
	}
	if s == nil {
		s = NewScratch()
	}
	res.reset(k, opt.Record)
	s.beginRun(n, k)
	kern := g.Kernel()
	s.pos = growI32(s.pos, k)
	pos := s.pos
	for i := range pos {
		pos[i] = opt.startVertex(origin, n, r)
	}
	if opt.Record {
		for i := 0; i < k; i++ {
			res.Trajectories[i] = []int32{pos[i]}
		}
	}
	s.active = growI32(s.active, k)[:0]
	active := s.active
	for i := 0; i < k; i++ {
		if !s.occupied(pos[i]) {
			s.occupy(pos[i])
			res.settle(i, pos[i], 0, 0)
		} else {
			active = append(active, int32(i))
		}
	}
	var tick int64
	for len(active) > 0 {
		tick++
		ai := r.Intn(len(active))
		p := active[ai]
		pos[p] = step(kern, pos[p], opt.Lazy, r)
		res.Steps[p]++
		res.TotalSteps++
		if opt.Record {
			res.Trajectories[p] = append(res.Trajectories[p], pos[p])
		}
		if !s.occupied(pos[p]) {
			s.occupy(pos[p])
			res.settle(int(p), pos[p], res.Steps[p], tick)
			active[ai] = active[len(active)-1]
			active = active[:len(active)-1]
		}
		if opt.MaxSteps > 0 && res.TotalSteps >= opt.MaxSteps {
			res.Truncated = true
			return nil
		}
	}
	return nil
}

func (res *Result) settle(particle int, v int32, steps, clock int64) {
	res.SettledAt[particle] = v
	res.Steps[particle] = steps
	res.SettleOrder = append(res.SettleOrder, int32(particle))
	res.SettleClock = append(res.SettleClock, clock)
	if steps > res.Dispersion {
		res.Dispersion = steps
	}
}

// event is a pending clock ring in the continuous-time processes.
type event struct {
	t float64
	p int32
}

// eventHeap is a binary min-heap on event time with inlined sift
// operations, so pushes and pops never box events through an interface —
// the allocation container/heap would charge per re-ring.
type eventHeap []event

// push inserts e, restoring the heap order.
func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h)[parent].t <= (*h)[i].t {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

// replaceTop replaces the earliest event with e, which must not be
// earlier, and restores the heap order with one sift down.
func (h eventHeap) replaceTop(e event) {
	h[0] = e
	h.down()
}

// pop removes the earliest event.
func (h *eventHeap) pop() {
	s := *h
	last := len(s) - 1
	s[0] = s[last]
	*h = s[:last]
	if last > 0 {
		h.down()
	}
}

// down sifts the root event down to its place: the earlier child moves up
// while it is strictly earlier than the event.
func (h eventHeap) down() {
	e := h[0]
	i, n := 0, len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if right := c + 1; right < n && h[right].t < h[c].t {
			c = right
		}
		if e.t <= h[c].t {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}

// CTResult augments Result with the real-valued clock of a continuous-time
// process.
type CTResult struct {
	Result
	// Time is the real time at which the last particle settled: the
	// paper's τ_c-seq / τ_c-unif.
	Time float64
	// SettleTimes[k] is the real time of the (k+1)-th settlement.
	SettleTimes []float64
}

// CTUniformInto runs the continuous-time Uniform IDLA (CTU-IDLA) of
// Section 4.3: every unsettled particle carries an independent exponential
// clock of rate 1 and moves when it rings, settling on unoccupied
// vertices. It is simulated exactly with an event heap. Theorem 4.8: its
// dispersion time is (1+o(1))·τ_par.
//
// It writes into the caller-owned res, fully overwritten with its backing
// arrays reused, and draws its occupancy map, position buffer and event
// heap from s (nil allocates a transient one).
func CTUniformInto(g graph.Graph, origin int, opt Options, r *rng.Source, s *Scratch, res *CTResult) error {
	n := g.N()
	k, err := opt.numParticles(n)
	if err != nil {
		return err
	}
	if err := validateRun(g, origin); err != nil {
		return err
	}
	if s == nil {
		s = NewScratch()
	}
	res.reset(k, opt.Record)
	s.beginRun(n, k)
	kern := g.Kernel()
	s.pos = growI32(s.pos, k)
	pos := s.pos
	for i := range pos {
		pos[i] = opt.startVertex(origin, n, r)
	}
	if opt.Record {
		for i := 0; i < k; i++ {
			res.Trajectories[i] = []int32{pos[i]}
		}
	}
	if cap(s.events) < k {
		s.events = make(eventHeap, 0, k)
	}
	s.events = s.events[:0]
	h := &s.events
	remaining := 0
	for i := 0; i < k; i++ {
		if !s.occupied(pos[i]) {
			s.occupy(pos[i])
			res.settle(i, pos[i], 0, 0)
			res.SettleTimes = append(res.SettleTimes, 0)
		} else {
			// Initial rings arrive in index order, matching the heap
			// initialisation of the historical implementation: appends
			// followed by one restore pass consume no randomness, so a
			// plain ordered push preserves the stream.
			h.push(event{t: r.ExpFloat64(), p: int32(i)})
			remaining++
		}
	}
	// The earliest ring moves its particle. A particle that stays
	// unsettled rings again later, which replaces the heap top in one sift;
	// only a settling particle leaves the heap. While event times are
	// distinct (they are sums of continuous variates) the event order is
	// the heap's sorted order, whatever its layout.
	for remaining > 0 {
		e := (*h)[0]
		p := e.p
		pos[p] = step(kern, pos[p], opt.Lazy, r)
		res.Steps[p]++
		res.TotalSteps++
		if opt.Record {
			res.Trajectories[p] = append(res.Trajectories[p], pos[p])
		}
		if !s.occupied(pos[p]) {
			h.pop()
			s.occupy(pos[p])
			res.settle(int(p), pos[p], res.Steps[p], int64(len(res.SettleOrder)))
			res.SettleTimes = append(res.SettleTimes, e.t)
			res.Time = e.t
			remaining--
		} else {
			h.replaceTop(event{t: e.t + r.ExpFloat64(), p: p})
		}
		if opt.MaxSteps > 0 && res.TotalSteps >= opt.MaxSteps {
			res.Truncated = true
			return nil
		}
	}
	return nil
}

// CTSequentialInto runs the continuous-time Sequential IDLA: the discrete
// Sequential process with independent Exp(1) waiting times between the
// jumps of each walk. Its dispersion time is the largest total walking
// time over particles; Section 4.3 shows it equals (1+o(1))·τ_seq.
//
// It writes into the caller-owned res, fully overwritten with its backing
// arrays reused, through s (nil allocates a transient one).
func CTSequentialInto(g graph.Graph, origin int, opt Options, r *rng.Source, s *Scratch, res *CTResult) error {
	if err := SequentialInto(g, origin, opt, r, s, &res.Result); err != nil {
		return err
	}
	res.Time = 0
	if cap(res.SettleTimes) < len(res.SettleOrder) {
		res.SettleTimes = make([]float64, 0, len(res.SettleOrder))
	} else {
		res.SettleTimes = res.SettleTimes[:0]
	}
	for _, p := range res.SettleOrder {
		var walkTime float64
		for st := int64(0); st < res.Steps[p]; st++ {
			walkTime += r.ExpFloat64()
		}
		res.SettleTimes = append(res.SettleTimes, walkTime)
		if walkTime > res.Time {
			res.Time = walkTime
		}
	}
	return nil
}
