package dispersion

import (
	"sort"

	"dispersion/internal/core"
)

// Result reports the outcome of a single dispersion-process run. It
// merges the internal discrete and continuous-time result types: the
// real-valued clock fields (Time, SettleTimes) are populated only when
// Continuous is true.
type Result struct {
	// Process is the canonical registry name of the process that produced
	// this result, e.g. "parallel" or "ct-uniform".
	Process string
	// Continuous reports whether the run was a continuous-time process,
	// i.e. whether Time and SettleTimes are meaningful.
	Continuous bool
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
	// SettledAt[i] is the vertex where particle i settled (-1 if the run
	// was truncated before it settled).
	SettledAt []int32
	// SettleOrder lists particle indices in settlement order.
	SettleOrder []int32
	// SettleClock[k] is the process time at which the (k+1)-th settlement
	// happened: round number for Parallel, tick for Uniform, cumulative
	// step count for Sequential, settlement index for the continuous
	// processes (whose real clock is SettleTimes).
	SettleClock []int64
	// Trajectories[i] is particle i's visited vertex sequence including
	// the origin (so len = Steps[i]+1); nil unless WithRecord was given.
	Trajectories [][]int32
	// Truncated reports that WithMaxSteps fired; all counts are then
	// lower bounds.
	Truncated bool
	// Capacity is the per-vertex capacity the run executed under: the
	// resolved c of a capacity process ("capacity", "capacity-parallel"),
	// 1 for the unit-capacity processes.
	Capacity int
	// Time is the real time at which the last particle settled — the
	// paper's τ_c-seq / τ_c-unif. Zero for discrete processes.
	Time float64
	// SettleTimes[k] is the real time of the (k+1)-th settlement; nil for
	// discrete processes.
	SettleTimes []float64
}

// setCore points res at an internal result's buffers (slice headers are
// copied, backing arrays shared — internal runs hand over ownership for
// the one-shot API, or lend it until recycling under Engine.ReuseResults)
// and stamps the process identity. Discrete processes leave the
// continuous-time clock fields of ct untouched, so they are masked off
// here rather than trusted.
func (res *Result) setCore(ct *core.CTResult, process string, continuous bool) {
	res.Process = process
	res.Continuous = continuous
	res.Dispersion = ct.Dispersion
	res.TotalSteps = ct.TotalSteps
	res.Steps = ct.Steps
	res.SettledAt = ct.SettledAt
	res.SettleOrder = ct.SettleOrder
	res.SettleClock = ct.SettleClock
	res.Trajectories = ct.Trajectories
	res.Truncated = ct.Truncated
	res.Capacity = ct.Capacity
	if continuous {
		res.Time = ct.Time
		res.SettleTimes = ct.SettleTimes
	} else {
		res.Time = 0
		res.SettleTimes = nil
	}
}

// core reconstructs the internal view of the result for delegation. The
// slices are shared.
func (res *Result) core() *core.Result {
	return &core.Result{
		Dispersion:   res.Dispersion,
		TotalSteps:   res.TotalSteps,
		Steps:        res.Steps,
		SettledAt:    res.SettledAt,
		SettleOrder:  res.SettleOrder,
		SettleClock:  res.SettleClock,
		Trajectories: res.Trajectories,
		Truncated:    res.Truncated,
		Capacity:     res.Capacity,
	}
}

// Makespan returns the run's dispersion time on its natural scale: the
// real-valued Time for continuous-time processes, and the step/round count
// Dispersion for discrete ones. It is the per-trial metric Engine.Sample
// collects.
func (res *Result) Makespan() float64 {
	if res.Continuous {
		return res.Time
	}
	return float64(res.Dispersion)
}

// Unsettled returns how many particles were left unsettled (only nonzero
// for truncated runs).
func (res *Result) Unsettled() int {
	n := 0
	for _, v := range res.SettledAt {
		if v < 0 {
			n++
		}
	}
	return n
}

// Check verifies the structural invariants every completed dispersion run
// must satisfy: each vertex hosts exactly one settled particle, the
// settlement clock is non-decreasing, the recorded dispersion equals the
// max step count, and recorded trajectories (if any) are genuine walks
// ending at the settlement vertex.
func (res *Result) Check(g Graph) error {
	return res.core().Check(g)
}

// AggregateAt reconstructs the occupied set after the first k settlements,
// in settlement order. Useful for shape inspection (examples/shape2d).
func (res *Result) AggregateAt(k int) []int32 {
	return res.core().AggregateAt(k)
}

// PhaseClock returns the process clock at which the number of unsettled
// particles first dropped below k (the paper's τ(G, k)-style phase time,
// Section 3.1.1) for a run on n vertices. It returns -1 if the run was
// truncated before reaching the phase.
func (res *Result) PhaseClock(n, k int) int64 {
	return res.core().PhaseClock(n, k)
}

// UnsettledAtClock returns how many particles were still unsettled
// strictly after the given clock value.
func (res *Result) UnsettledAtClock(clock int64) int {
	settled := sort.Search(len(res.SettleClock), func(i int) bool {
		return res.SettleClock[i] > clock
	})
	return len(res.SettledAt) - settled
}
