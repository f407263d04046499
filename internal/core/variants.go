// This file holds the registered variant workloads: the Proposition A.1
// modified settle rules (geometric acceptance and step-threshold
// settlement) and the capacity-c generalization where every vertex hosts
// up to c particles. Like the five standard processes, each comes as a
// one-shot function and an *Into variant sharing the caller's Scratch and
// Result buffers. Each *Into form runs process.go's sequential or
// parallel loop under its settlement law, with the law's parameters
// resolved here.

package core

import (
	"fmt"
	"math"

	"dispersion/internal/graph"
	"dispersion/internal/rng"
)

// geomParam resolves Options.SettleParam as SequentialGeom's per-visit
// settle probability q. Zero means the default 1/2; q = 1 recovers the
// standard rule.
func (o *Options) geomParam() (float64, error) {
	q := o.SettleParam
	if q == 0 {
		q = 0.5
	}
	// The negated form also rejects NaN, which would otherwise make the
	// acceptance coin unwinnable and the walk endless.
	if !(q > 0 && q <= 1) {
		return 0, fmt.Errorf("core: geometric settle probability %v (want (0,1])", q)
	}
	return q, nil
}

// thresholdParam resolves Options.SettleParam as SequentialThreshold's
// minimum step count T (the fractional part is truncated). Zero means the
// default n, the graph size. Any value in (0, 1) truncates to T = 0, which
// recovers the standard rule.
func (o *Options) thresholdParam(n int) (int64, error) {
	if o.SettleParam == 0 {
		return int64(n), nil
	}
	// The negated range check rejects NaN (whose int64 conversion is
	// platform-defined) and an infinite or absurd threshold that could
	// never finish its forced walk.
	if !(o.SettleParam > 0 && o.SettleParam <= math.MaxInt32) {
		return 0, fmt.Errorf("core: settle threshold %v (want (0,%d]; 0 selects the default n)",
			o.SettleParam, math.MaxInt32)
	}
	return int64(o.SettleParam), nil
}

// SequentialGeom runs the Sequential process under the geometric settle
// rule of Proposition A.1: a particle standing on a vacant vertex settles
// there with probability q per visit (Options.SettleParam, default 1/2)
// and otherwise keeps walking. q = 1 recovers the standard process.
func SequentialGeom(g graph.Graph, origin int, opt Options, r *rng.Source) (*Result, error) {
	res := new(Result)
	if err := SequentialGeomInto(g, origin, opt, r, nil, res); err != nil {
		return nil, err
	}
	return res, nil
}

// SequentialGeomInto is SequentialGeom writing into a caller-owned Result
// through the given Scratch (nil allocates a transient one). res is fully
// overwritten; the RNG stream consumed is identical to SequentialGeom's.
func SequentialGeomInto(g graph.Graph, origin int, opt Options, r *rng.Source, s *Scratch, res *Result) error {
	return sequential(g, origin, opt, LaneGeom, r, s, res)
}

// SequentialThreshold runs the Sequential process under the step-threshold
// settle rule of Proposition A.1: a particle may settle only from its T-th
// step on (Options.SettleParam, default n), at the first vacant vertex it
// then stands on. Longer forced walks can decrease the dispersion time on
// gadgets like the clique-with-hair — the paper's no-least-action example.
func SequentialThreshold(g graph.Graph, origin int, opt Options, r *rng.Source) (*Result, error) {
	res := new(Result)
	if err := SequentialThresholdInto(g, origin, opt, r, nil, res); err != nil {
		return nil, err
	}
	return res, nil
}

// SequentialThresholdInto is SequentialThreshold writing into a
// caller-owned Result through the given Scratch (nil allocates a transient
// one). res is fully overwritten; the RNG stream consumed is identical to
// SequentialThreshold's.
func SequentialThresholdInto(g graph.Graph, origin int, opt Options, r *rng.Source, s *Scratch, res *Result) error {
	return sequential(g, origin, opt, LaneThreshold, r, s, res)
}

// CapacitySequential runs the capacity-c Sequential process: the
// k-particles-per-vertex load-balancing generalization where every vertex
// hosts up to c settled particles (Options.Capacity, default
// DefaultCapacity) and a particle settles on the first standing vertex
// holding fewer than c. By default c·n particles disperse, filling every
// vertex to capacity; Options.Particles lowers the count.
func CapacitySequential(g graph.Graph, origin int, opt Options, r *rng.Source) (*Result, error) {
	res := new(Result)
	if err := CapacitySequentialInto(g, origin, opt, r, nil, res); err != nil {
		return nil, err
	}
	return res, nil
}

// CapacitySequentialInto is CapacitySequential writing into a caller-owned
// Result through the given Scratch (nil allocates a transient one). res is
// fully overwritten; the RNG stream consumed is identical to
// CapacitySequential's. Vertices at capacity are stamped into the same
// occupancy map the unit-capacity walks test, so the whole settlement walk
// still runs behind one kernel dispatch.
func CapacitySequentialInto(g graph.Graph, origin int, opt Options, r *rng.Source, s *Scratch, res *Result) error {
	return sequential(g, origin, opt, LaneCapacity, r, s, res)
}

// CapacityParallel runs the capacity-c Parallel process: all particles
// start together, every round all unsettled particles move simultaneously,
// and settlement resolution in priority order lets each vertex accept
// arrivals until it holds c settled particles (Options.Capacity, default
// DefaultCapacity). Priority is least index, or a uniform permutation
// under Options.RandomPriority.
func CapacityParallel(g graph.Graph, origin int, opt Options, r *rng.Source) (*Result, error) {
	res := new(Result)
	if err := CapacityParallelInto(g, origin, opt, r, nil, res); err != nil {
		return nil, err
	}
	return res, nil
}

// CapacityParallelInto is CapacityParallel writing into a caller-owned
// Result through the given Scratch (nil allocates a transient one). res is
// fully overwritten; the RNG stream consumed is identical to
// CapacityParallel's.
func CapacityParallelInto(g graph.Graph, origin int, opt Options, r *rng.Source, s *Scratch, res *Result) error {
	return parallel(g, origin, opt, LaneCapacity, r, s, res)
}
