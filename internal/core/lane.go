// This file holds the batched execution lane: up to Options.Batch
// concurrent trials advance together through one SoA state bank, stepped
// by the kernel's StepLane superstep. The scalar hot path walks one
// particle at a time, so every step's load depends on the previous step's
// RNG draw; the lane breaks that serial chain by interleaving independent
// trials, giving the CPU a window of independent loads per superstep.
// Only a table-backed kernel has loads to overlap, so LaneWidth, the one
// place that decides how a batched job runs, chooses a lane only there
// and sends every other batched job down the unbatched path. Either way trial
// i draws its scalar stream, seeded by the (seed, experiment, trial)
// lineage, in the scalar loop's order, so its result is byte-identical to
// the unbatched one, for any batch width, worker count or sharding.

package core

import (
	"fmt"

	"dispersion/internal/graph"
	"dispersion/internal/rng"
)

// LaneVariant selects a settlement law: the one a batched lane run
// executes, and the one the scalar Sequential and Parallel loops run
// under. LaneNone marks a process with no batched form: the interacting
// processes (Parallel, Uniform, the continuous clocks) are inherently
// cross-particle and stay scalar.
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
// rejects a lane whose occupancy rows exceed it, and LaneWidth narrows
// the engine's blocks until the rows and the results in flight fit it.
const laneMaxOccBytes = 1 << 28

// A lane trial's result holds 24 bytes a particle (its Steps, SettledAt,
// SettleOrder and SettleClock entries) and at most 512 more (the
// engine's result headers and its seed).
const laneParticleBytes, laneTrialBytes = 24, 512

// laneRowBytes is a slot's occupancy row: a byte a vertex, or a 4-byte count.
func laneRowBytes(n int, variant LaneVariant) int64 {
	if variant == LaneCapacity {
		return 4 * int64(n)
	}
	return int64(n)
}

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
// job, and returns 0, run it unbatched (the same bytes), on a kernel that
// computes its neighbour (graph.LaneGathers false), which has no loads
// to overlap. On a table-backed kernel it returns the lane width: the
// smallest of Options.Batch, which is only a cap; ⌈trials/workers⌉, so
// no worker idles; and the widest block for which every worker's lane
// rows and the results of the 4·workers blocks the delivery window holds
// fit laneMaxOccBytes together, 0 if not one slot fits.
func LaneWidth(g graph.Graph, origin int, opt Options, variant LaneVariant, trials, workers int) (int, error) {
	lw, err := opt.laneLaw(g, origin, variant)
	if err != nil || !graph.LaneGathers(g.Kernel()) {
		return 0, err
	}
	slot := int64(workers) * (laneRowBytes(g.N(), variant) + 4*(laneTrialBytes+laneParticleBytes*int64(lw.k)))
	return int(min(int64(opt.Batch), int64((trials-1)/workers+1), laneMaxOccBytes/slot)), nil
}

// laneState is the SoA state bank of the batched scheduler, living on
// Scratch so steady-state lane runs allocate nothing. Slot j of the bank
// hosts one trial at a time: its RNG stream, its own occupancy row, and
// the position/particle/step counters of the trial's in-flight particle.
type laneState struct {
	src rng.LaneSource
	// n and width are the shape the bank is currently laid out for; a
	// reshape, or a change of the rows laid out, invalidates every row, so
	// prepare clears on either.
	n     int
	width int
	// occ rows mirror Scratch.occ per slot: occ[j*n+v] == epochs[j] means
	// vertex v is occupied in slot j's trial. Unused by LaneCapacity.
	occ []uint8
	// cnt rows mirror Scratch.cnt per slot (epoch in the high byte,
	// count in the low 24 bits). Sized only for LaneCapacity.
	cnt []uint32
	// epochs[j] stamps slot j's current trial, so rehosting a slot is one
	// increment instead of an O(n) row clear (one real clear every 255
	// trials on wrap, as in the scalar Scratch).
	epochs []uint8
	trial  []int32 // index into the run's seeds/outs hosted by each slot
	pos    []int32 // current particle's position
	part   []int32 // index of the current particle within its trial
	steps  []int64 // current particle's step count
	total  []int64 // trial's TotalSteps so far
	idx    []int32 // active-slot list handed to StepLane
}

// prepare lays the bank out for a width-slot lane on an n-vertex graph,
// with count rows when counts is set (the capacity law) and occupancy
// rows otherwise. Rows survive across runs of the same layout (the
// per-slot epochs keep them correct); any other layout clears them
// wholesale, since stale stamps would land at arbitrary row offsets, or
// outlive an epoch wrap that cleared only the rows in use.
func (ls *laneState) prepare(n, width int, counts bool) {
	reset := ls.n != n || ls.width != width || (len(ls.cnt) > 0) != counts
	ls.n, ls.width = n, width
	ls.src.Resize(width)
	ls.trial = growI32(ls.trial, width)
	ls.pos = growI32(ls.pos, width)
	ls.part = growI32(ls.part, width)
	ls.steps = growI64(ls.steps, width)
	ls.total = growI64(ls.total, width)
	if cap(ls.epochs) < width {
		ls.epochs = make([]uint8, width)
		reset = true
	}
	ls.epochs = ls.epochs[:width]
	cells := n * width
	ls.occ = ls.occ[:0]
	if !counts {
		if cap(ls.occ) < cells {
			ls.occ = make([]uint8, cells)
		}
		ls.occ = ls.occ[:cells]
	}
	ls.cnt = ls.cnt[:0]
	if counts {
		if cap(ls.cnt) < cells {
			ls.cnt = make([]uint32, cells)
		}
		ls.cnt = ls.cnt[:cells]
	}
	if reset {
		clear(ls.occ[:cap(ls.occ)])
		clear(ls.cnt[:cap(ls.cnt)])
		clear(ls.epochs)
	}
}

// beginTrial opens a fresh occupancy row for slot j's next trial.
func (ls *laneState) beginTrial(j int32) {
	ls.epochs[j]++
	if ls.epochs[j] == 0 {
		// Epoch wrapped: stale stamps in this slot's row could collide,
		// so pay one row clear (every 255 trials per slot).
		if len(ls.occ) > 0 {
			clear(ls.occ[int(j)*ls.n : (int(j)+1)*ls.n])
		}
		if len(ls.cnt) > 0 {
			clear(ls.cnt[int(j)*ls.n : (int(j)+1)*ls.n])
		}
		ls.epochs[j] = 1
	}
}

// occupied reports whether vertex v hosts a settled particle in slot j's
// trial.
func (ls *laneState) occupied(j, v int32) bool {
	return ls.occ[int(j)*ls.n+int(v)] == ls.epochs[j]
}

// occupy marks vertex v as occupied in slot j's trial.
func (ls *laneState) occupy(j, v int32) {
	ls.occ[int(j)*ls.n+int(v)] = ls.epochs[j]
}

// count returns how many settled particles vertex v hosts in slot j's
// trial.
func (ls *laneState) count(j, v int32) int32 {
	if c := ls.cnt[int(j)*ls.n+int(v)]; uint8(c>>24) == ls.epochs[j] {
		return int32(c & 0xffffff)
	}
	return 0
}

// setCount records that vertex v hosts c settled particles in slot j's
// trial.
func (ls *laneState) setCount(j, v int32, c int32) {
	ls.cnt[int(j)*ls.n+int(v)] = uint32(ls.epochs[j])<<24 | uint32(c)
}

// RunLane executes one trial per seed of the Sequential-family process
// selected by variant through the lane. seeds[i] must be the root of
// trial i's stream (the engine passes Runner.TrialSeed); outs[i] receives
// trial i's result, exactly what the scalar *Into writes for a Source
// seeded with seeds[i]. It rejects what LaneWidth rejects, and lanes
// whose occupancy rows exceed laneMaxOccBytes.
//
// The trials run in a lane of up to opt.Batch slots, slot j drawing from
// its own Source seeded with its trial's seed. The scheduler alternates
// two phases: a resolve phase (truncation check, then the variant's
// settlement cascade, then retire/rehost) touching only per-slot state,
// and a walk phase, in which one kern.StepLane call advances every
// unresolved slot a single walk move, so on a table-backed kernel the
// slots' cache misses overlap. Slots retire as their trials finish and
// immediately rehost the next pending seed, so the lane stays full until
// the tail. A slot makes its trial's draws — origin draws, lazy coins,
// step draws, acceptance coins — in the scalar loop's order, which is
// what makes batched results the scalar ones, whatever Batch, workers or
// sharding.
func RunLane(g graph.Graph, origin int, opt Options, variant LaneVariant, seeds []uint64, s *Scratch, outs []*Result) error {
	if len(seeds) != len(outs) {
		return fmt.Errorf("core: %d lane seeds for %d results", len(seeds), len(outs))
	}
	lw, err := opt.laneLaw(g, origin, variant)
	if err != nil {
		return err
	}
	k, q, T, plan := lw.k, lw.q, lw.T, lw.plan
	if len(seeds) == 0 {
		return nil
	}
	n := g.N()
	width := min(opt.Batch, len(seeds))
	if bytes := int64(width) * laneRowBytes(n, variant); bytes > laneMaxOccBytes {
		return fmt.Errorf("core: batch %d on %d vertices needs %d bytes of lane occupancy (max %d); lower the batch width",
			width, n, bytes, laneMaxOccBytes)
	}
	if s == nil {
		s = NewScratch()
	}
	ls := &s.lane
	kern := g.Kernel()
	ls.prepare(n, width, variant == LaneCapacity)

	next := 0 // next seed to host
	// host seats trial `next` on slot j: seeds the slot stream, resets the
	// result, opens a fresh occupancy row and starts particle 0. Origin
	// draws come from the slot stream, like every draw of the trial.
	host := func(j int32) {
		ls.src.Seed(int(j), seeds[next])
		ls.trial[j] = int32(next)
		res := outs[next]
		res.reset(k, false)
		res.Capacity = plan.uniform
		ls.beginTrial(j)
		ls.part[j] = 0
		ls.steps[j] = 0
		ls.total[j] = 0
		ls.pos[j] = opt.startVertex(origin, n, ls.src.Slot(int(j)))
		next++
	}
	// resolve applies the truncation check and the variant's settlement
	// cascade to slot j, reporting whether the hosted trial finished. When
	// it returns false the slot's particle is standing unsettled and owes
	// exactly one walk move this superstep.
	resolve := func(j int32) bool {
		res := outs[ls.trial[j]]
		// The step that reached this standing may have exhausted the
		// budget; like the scalar loop, truncation then wins even if the
		// particle is standing on a vertex it could settle on.
		if opt.MaxSteps > 0 && ls.total[j] >= opt.MaxSteps {
			res.Truncated = true
			res.Steps[ls.part[j]] = ls.steps[j]
			res.TotalSteps = ls.total[j]
			return true
		}
		for {
			v := ls.pos[j]
			switch variant {
			case LaneStandard:
				if ls.occupied(j, v) {
					return false
				}
				ls.occupy(j, v)
			case LaneGeom:
				// The acceptance coin is drawn once per vacant standing,
				// matching the scalar draw schedule; a rejected standing
				// owes the forced move, which is this superstep's step.
				if ls.occupied(j, v) || ls.src.Slot(int(j)).Float64() >= q {
					return false
				}
				ls.occupy(j, v)
			case LaneThreshold:
				if ls.steps[j] < T || ls.occupied(j, v) {
					return false
				}
				ls.occupy(j, v)
			case LaneCapacity:
				cv := ls.count(j, v)
				if int(cv) >= plan.at(v) {
					return false
				}
				ls.setCount(j, v, cv+1)
			}
			res.settle(int(ls.part[j]), v, ls.steps[j], ls.total[j])
			ls.part[j]++
			if int(ls.part[j]) == k {
				res.TotalSteps = ls.total[j]
				return true
			}
			ls.steps[j] = 0
			ls.pos[j] = opt.startVertex(origin, n, ls.src.Slot(int(j)))
		}
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
	ls.idx = growI32(ls.idx, width)
	active := ls.idx[:0]
	for j := int32(0); int(j) < width; j++ {
		host(j)
		active = append(active, j)
	}
	for {
		// Phase 1: settle, retire and rehost until every remaining active
		// slot owes a walk move. The common superstep outcome by far is
		// "still walking" — the standing vertex cannot be settled on — so
		// each variant probes that case inline and only falls into the
		// resolve cascade when a settlement (or truncation) is actually
		// due.
		keep := active[:0]
		switch variant {
		case LaneStandard, LaneGeom:
			// Geom shares the fast path: an occupied standing draws no
			// acceptance coin, exactly as in resolve's short-circuit.
			for _, j := range active {
				if (maxSteps == 0 || ls.total[j] < maxSteps) && ls.occ[int(j)*n+int(ls.pos[j])] == ls.epochs[j] {
					keep = append(keep, j)
				} else if j = slow(j); j >= 0 {
					keep = append(keep, j)
				}
			}
		case LaneThreshold:
			for _, j := range active {
				if (maxSteps == 0 || ls.total[j] < maxSteps) && (ls.steps[j] < T || ls.occ[int(j)*n+int(ls.pos[j])] == ls.epochs[j]) {
					keep = append(keep, j)
				} else if j = slow(j); j >= 0 {
					keep = append(keep, j)
				}
			}
		case LaneCapacity:
			for _, j := range active {
				v := ls.pos[j]
				if (maxSteps == 0 || ls.total[j] < maxSteps) && int(ls.count(j, v)) >= plan.at(v) {
					keep = append(keep, j)
				} else if j = slow(j); j >= 0 {
					keep = append(keep, j)
				}
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
