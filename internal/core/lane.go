// This file holds the batched execution lane: up to Options.Batch
// concurrent trials of the standard Sequential law advance together
// through one SoA state bank, stepped by the kernel's StepLane superstep.
// The scalar hot path walks one particle at a time, so every step's load
// depends on the previous step's RNG draw; the lane breaks that serial
// chain by interleaving independent trials, giving the CPU a window of
// independent loads per superstep. Only the standard law on a
// table-backed kernel has loads worth overlapping, so LaneWidth, the one
// place that decides how a batched job runs, chooses a lane only there
// and sends every other batched job, the geometric, threshold and
// capacity laws on any kernel included, down the unbatched path. Either
// way trial i draws its scalar stream, seeded by the (seed, experiment,
// trial) lineage, in the scalar loop's order, so its result is
// byte-identical to the unbatched one, for any batch width, worker count
// or sharding.

package core

import (
	"fmt"

	"dispersion/internal/graph"
	"dispersion/internal/rng"
)

// LaneVariant selects a settlement law: the one the scalar Sequential and
// Parallel loops run under, and the one a batched job is validated
// under. Only LaneStandard runs a lane; a batched job under any other
// law runs its unbatched twin. LaneNone marks a process with no batched
// form: the interacting processes (Parallel, Uniform, the continuous
// clocks) are inherently cross-particle and stay scalar.
type LaneVariant uint8

const (
	// LaneNone marks a process without a batched form.
	LaneNone LaneVariant = iota
	// LaneStandard is Sequential: settle on the first vacant standing.
	LaneStandard
	// LaneGeom is SequentialGeom: accept a vacant standing with
	// probability q per visit.
	LaneGeom
	// LaneThreshold is SequentialThreshold: settle only from step T on.
	LaneThreshold
	// LaneCapacity is CapacitySequential: settle while the standing
	// vertex is below its capacity.
	LaneCapacity
)

// maxBatch bounds Options.Batch; wider lanes exceed any cache level and
// only inflate the occupancy bank.
const maxBatch = 1 << 16

// laneMaxOccBytes bounds the memory a batched job holds in lanes: RunLane
// rejects a lane whose slots' occupancy maps, a byte a vertex each,
// exceed it, and LaneWidth narrows the engine's blocks until the maps and
// the results in flight fit it.
const laneMaxOccBytes = 1 << 28

// A lane trial's result holds 24 bytes a particle (its Steps, SettledAt,
// SettleOrder and SettleClock entries) and at most 512 more (the
// engine's result headers and its seed).
const laneParticleBytes, laneTrialBytes = 24, 512

// laneLaw resolves the settlement law of a batched run and validates the
// run. LaneWidth and RunLane both check through it, so the engine, a
// one-shot run and a direct RunLane caller reject the same jobs alike.
func (o *Options) laneLaw(g graph.Graph, origin int, variant LaneVariant) (law, error) {
	lw, err := o.law(variant, g.N())
	switch {
	case err != nil:
	case o.Batch < 1 || o.Batch > maxBatch:
		err = fmt.Errorf("core: batch width %d (want 1..%d)", o.Batch, maxBatch)
	case o.Record:
		err = fmt.Errorf("core: batched execution cannot record trajectories")
	case o.Rule != nil:
		err = fmt.Errorf("core: batched execution cannot apply a custom settle rule")
	default:
		err = validateRun(g, origin)
	}
	return lw, err
}

// LaneWidth is the one decision about a batched job of trials trials on
// workers ≥ 1 workers. It fails where the batched form cannot run the
// job, and returns 0, run it unbatched (the same bytes), for every law
// but LaneStandard, and on a kernel that computes its neighbour
// (graph.LaneGathers false), which has no loads to overlap. For the
// standard law on a table-backed kernel it returns the lane width: the
// smallest of Options.Batch, which is only a cap; ⌈trials/workers⌉, so
// no worker idles; and the widest block for which every worker's slot
// maps and the results of the 4·workers blocks the delivery window holds
// fit laneMaxOccBytes together, 0 if not one slot fits.
func LaneWidth(g graph.Graph, origin int, opt Options, variant LaneVariant, trials, workers int) (int, error) {
	lw, err := opt.laneLaw(g, origin, variant)
	if err != nil || variant != LaneStandard || !graph.LaneGathers(g.Kernel()) {
		return 0, err
	}
	slot := int64(workers) * (int64(g.N()) + 4*(laneTrialBytes+laneParticleBytes*int64(lw.k)))
	return int(min(int64(opt.Batch), int64((trials-1)/workers+1), laneMaxOccBytes/slot)), nil
}

// laneState is the SoA state bank of the batched scheduler, living on
// Scratch so steady-state lane runs allocate nothing. Slot j of the bank
// hosts one trial at a time: its RNG stream, its occupancy map, and the
// position/particle/step counters of the trial's in-flight particle.
type laneState struct {
	src rng.LaneSource
	// maps[j] is slot j's occupancy map, begun afresh for each trial the
	// slot hosts, as beginRun begins the scalar one. Its epochs keep every
	// earlier trial's stamps dead, on a graph of any size, so the maps
	// survive from run to run.
	maps  []occMap
	trial []int32 // index into the run's seeds/outs hosted by each slot
	pos   []int32 // current particle's position
	part  []int32 // index of the current particle within its trial
	steps []int64 // current particle's step count
	total []int64 // trial's TotalSteps so far
	idx   []int32 // active-slot list handed to StepLane
}

// prepare lays the bank out for a width-slot lane, keeping the maps of
// the slots it already has.
func (ls *laneState) prepare(width int) {
	ls.src.Resize(width)
	if cap(ls.maps) < width {
		ls.maps = append(ls.maps[:cap(ls.maps)], make([]occMap, width-cap(ls.maps))...)
	}
	ls.maps = ls.maps[:width]
	ls.trial = growI32(ls.trial, width)
	ls.pos = growI32(ls.pos, width)
	ls.part = growI32(ls.part, width)
	ls.steps = growI64(ls.steps, width)
	ls.total = growI64(ls.total, width)
	ls.idx = growI32(ls.idx, width)
}

// RunLane executes one standard Sequential trial per seed through the
// lane. seeds[i] must be the root of trial i's stream (the engine passes
// Runner.TrialSeed); outs[i] receives trial i's result, exactly what
// SequentialInto writes for a Source seeded with seeds[i]. It rejects
// what LaneWidth rejects, every variant but LaneStandard (their batched
// jobs run unbatched), and lanes whose occupancy maps exceed
// laneMaxOccBytes.
//
// The trials run in a lane of up to opt.Batch slots, slot j drawing from
// its own Source seeded with its trial's seed. The scheduler alternates
// two phases: a resolve phase (truncation check, then the settlement
// cascade, then retire/rehost) touching only per-slot state, and a walk
// phase, in which one kern.StepLane call advances every unresolved slot a
// single walk move, so on a table-backed kernel the slots' cache misses
// overlap. Slots retire as their trials finish and immediately rehost the
// next pending seed, so the lane stays full until the tail. A slot makes
// its trial's draws — origin draws, lazy coins, step draws — in the
// scalar loop's order, which is what makes batched results the scalar
// ones, whatever Batch, workers or sharding.
func RunLane(g graph.Graph, origin int, opt Options, variant LaneVariant, seeds []uint64, s *Scratch, outs []*Result) error {
	if len(seeds) != len(outs) {
		return fmt.Errorf("core: %d lane seeds for %d results", len(seeds), len(outs))
	}
	lw, err := opt.laneLaw(g, origin, variant)
	if err != nil {
		return err
	}
	if variant != LaneStandard {
		return fmt.Errorf("core: the batched lane runs only the standard Sequential law; run this law unbatched")
	}
	if len(seeds) == 0 {
		return nil
	}
	k, n := lw.k, g.N()
	width := min(opt.Batch, len(seeds))
	if bytes := int64(width) * int64(n); bytes > laneMaxOccBytes {
		return fmt.Errorf("core: batch %d on %d vertices needs %d bytes of lane occupancy (max %d); lower the batch width",
			width, n, bytes, laneMaxOccBytes)
	}
	if s == nil {
		s = NewScratch()
	}
	ls := &s.lane
	kern := g.Kernel()
	ls.prepare(width)

	next := 0 // next seed to host
	// host seats trial `next` on slot j: seeds the slot stream, resets the
	// result, begins the slot's occupancy map and starts particle 0.
	// Origin draws come from the slot stream, like every draw of the
	// trial.
	host := func(j int32) {
		ls.src.Seed(int(j), seeds[next])
		ls.trial[j] = int32(next)
		outs[next].reset(k, false)
		ls.maps[j].begin(n)
		ls.part[j] = 0
		ls.steps[j] = 0
		ls.total[j] = 0
		ls.pos[j] = opt.startVertex(origin, n, ls.src.Slot(int(j)))
		next++
	}
	// resolve applies the truncation check and the settlement cascade to
	// slot j, reporting whether the hosted trial finished. When it returns
	// false the slot's particle is standing on an occupied vertex and owes
	// exactly one walk move this superstep.
	resolve := func(j int32) bool {
		res := outs[ls.trial[j]]
		// The step that reached this standing may have exhausted the
		// budget; like the scalar loop, truncation then wins even if the
		// particle is standing on a vacant vertex.
		if opt.MaxSteps > 0 && ls.total[j] >= opt.MaxSteps {
			res.Truncated = true
			res.Steps[ls.part[j]] = ls.steps[j]
			res.TotalSteps = ls.total[j]
			return true
		}
		m := &ls.maps[j]
		for v := ls.pos[j]; !m.has(v); v = ls.pos[j] {
			m.mark(v)
			res.settle(int(ls.part[j]), v, ls.steps[j], ls.total[j])
			ls.part[j]++
			if int(ls.part[j]) == k {
				res.TotalSteps = ls.total[j]
				return true
			}
			ls.steps[j] = 0
			ls.pos[j] = opt.startVertex(origin, n, ls.src.Slot(int(j)))
		}
		return false
	}

	// slow runs the full resolve/retire/rehost chain on slot j, returning
	// the slot if it still owes a walk move and -1 when it runs dry.
	slow := func(j int32) int32 {
		for resolve(j) {
			if next == len(seeds) {
				return -1
			}
			host(j)
		}
		return j
	}

	maxSteps := opt.MaxSteps
	active := ls.idx[:0]
	for j := int32(0); int(j) < width; j++ {
		host(j)
		active = append(active, j)
	}
	for {
		// Phase 1: settle, retire and rehost until every remaining active
		// slot owes a walk move. The common superstep outcome by far is
		// "still walking" — the particle stands on an occupied vertex — so
		// the loop probes that case inline and only falls into the resolve
		// cascade when a settlement (or truncation) is actually due.
		keep := active[:0]
		for _, j := range active {
			if (maxSteps == 0 || ls.total[j] < maxSteps) && ls.maps[j].has(ls.pos[j]) {
				keep = append(keep, j)
			} else if j = slow(j); j >= 0 {
				keep = append(keep, j)
			}
		}
		active = keep
		if len(active) == 0 {
			return nil
		}
		// Phase 2: one fused kernel dispatch advances every unresolved
		// slot a single move; a lazy stay still counts as a step, as in
		// the scalar walk.
		kern.StepLane(ls.pos, active, opt.Lazy, &ls.src)
		for _, j := range active {
			ls.steps[j]++
			ls.total[j]++
		}
	}
}
