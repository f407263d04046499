// This file holds the registered variant workloads: the Proposition A.1
// modified settle rules (geometric acceptance and step-threshold
// settlement) and the capacity-c generalization where every vertex hosts
// up to c particles. Like the five standard processes, each is an *Into
// function sharing the caller's Scratch and Result buffers, and runs
// process.go's sequential or parallel loop under its settlement law, with
// the law's parameters resolved here.

package core

import (
	"fmt"
	"math"

	"dispersion/internal/graph"
	"dispersion/internal/rng"
)

// geomParam resolves Options.SettleParam as SequentialGeomInto's per-visit
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

// thresholdParam resolves Options.SettleParam as SequentialThresholdInto's
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

// SequentialGeomInto runs the Sequential process under the geometric
// settle rule of Proposition A.1: a particle standing on a vacant vertex
// settles there with probability q per visit (Options.SettleParam, default
// 1/2) and otherwise keeps walking. q = 1 recovers the standard process.
//
// It writes into the caller-owned res, fully overwritten with its backing
// arrays reused, through s (nil allocates a transient one).
func SequentialGeomInto(g graph.Graph, origin int, opt Options, r *rng.Source, s *Scratch, res *Result) error {
	return sequential(g, origin, opt, LaneGeom, r, s, res)
}

// SequentialThresholdInto runs the Sequential process under the
// step-threshold settle rule of Proposition A.1: a particle may settle
// only from its T-th step on (Options.SettleParam, default n), at the
// first vacant vertex it then stands on. Longer forced walks can decrease
// the dispersion time on gadgets like the clique-with-hair — the paper's
// no-least-action example.
//
// It writes into the caller-owned res, fully overwritten with its backing
// arrays reused, through s (nil allocates a transient one).
func SequentialThresholdInto(g graph.Graph, origin int, opt Options, r *rng.Source, s *Scratch, res *Result) error {
	return sequential(g, origin, opt, LaneThreshold, r, s, res)
}

// CapacitySequentialInto runs the capacity-c Sequential process: the
// k-particles-per-vertex load-balancing generalization where every vertex
// hosts up to c settled particles (Options.Capacity, default
// DefaultCapacity) and a particle settles on the first standing vertex
// holding fewer than c. By default c·n particles disperse, filling every
// vertex to capacity; Options.Particles lowers the count.
//
// It writes into the caller-owned res, fully overwritten with its backing
// arrays reused, through s (nil allocates a transient one). Vertices at
// capacity are stamped into the same occupancy map the unit-capacity walks
// test, so the whole settlement walk still runs behind one kernel
// dispatch.
func CapacitySequentialInto(g graph.Graph, origin int, opt Options, r *rng.Source, s *Scratch, res *Result) error {
	return sequential(g, origin, opt, LaneCapacity, r, s, res)
}

// CapacityParallelInto runs the capacity-c Parallel process: all particles
// start together, every round all unsettled particles move simultaneously,
// and settlement resolution in priority order lets each vertex accept
// arrivals until it holds c settled particles (Options.Capacity, default
// DefaultCapacity). Priority is least index, or a uniform permutation
// under Options.RandomPriority.
//
// It writes into the caller-owned res, fully overwritten with its backing
// arrays reused, through s (nil allocates a transient one).
func CapacityParallelInto(g graph.Graph, origin int, opt Options, r *rng.Source, s *Scratch, res *Result) error {
	return parallel(g, origin, opt, LaneCapacity, r, s, res)
}
