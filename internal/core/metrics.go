package core

import (
	"fmt"

	"dispersion/internal/graph"
)

// PhaseClock returns the process clock at which the number of unsettled
// particles first dropped below k (the paper's τ(G, k)-style phase time,
// Section 3.1.1). k = 1 returns the final settlement clock. It returns -1
// if the run was truncated before reaching the phase.
func (res *Result) PhaseClock(n, k int) int64 {
	// After the (s+1)-th settlement, n-1-s particles are unsettled.
	// We need the first clock with n-1-s < k, i.e. s > n-1-k.
	idx := n - k // settlement index s = n-k gives n-1-s = k-1 < k
	if idx < 0 {
		idx = 0
	}
	if idx >= len(res.SettleClock) {
		return -1
	}
	return res.SettleClock[idx]
}

// Check verifies the structural invariants every completed dispersion run
// must satisfy: no vertex hosts more settled particles than the run's
// per-vertex capacity (one, except for the capacity processes), the
// settlement clock is non-decreasing, the recorded dispersion equals the
// max step count, and recorded trajectories (if any) are genuine walks
// ending at the settlement vertex. It is used by tests and the examples.
func (res *Result) Check(g graph.Graph) error {
	if res.Truncated {
		return fmt.Errorf("core: truncated run cannot be checked")
	}
	n := g.N()
	capacity := int32(res.Capacity)
	if capacity == 0 {
		capacity = 1
	}
	hosts := make([]int32, n)
	for i, v := range res.SettledAt {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("core: particle %d settled at invalid vertex %d", i, v)
		}
		hosts[v]++
		if hosts[v] > capacity {
			return fmt.Errorf("core: vertex %d hosts %d settled particles (capacity %d)", v, hosts[v], capacity)
		}
	}
	var total, maxSteps int64
	for _, s := range res.Steps {
		total += s
		if s > maxSteps {
			maxSteps = s
		}
	}
	if total != res.TotalSteps {
		return fmt.Errorf("core: TotalSteps %d != sum of Steps %d", res.TotalSteps, total)
	}
	if maxSteps != res.Dispersion {
		return fmt.Errorf("core: Dispersion %d != max Steps %d", res.Dispersion, maxSteps)
	}
	k := len(res.SettledAt)
	if len(res.SettleOrder) != k || len(res.SettleClock) != k {
		return fmt.Errorf("core: settlement records incomplete: %d/%d", len(res.SettleOrder), k)
	}
	for i := 1; i < k; i++ {
		if res.SettleClock[i] < res.SettleClock[i-1] {
			return fmt.Errorf("core: settlement clock decreases at %d", i)
		}
	}
	if res.Trajectories != nil {
		for i, traj := range res.Trajectories {
			if int64(len(traj)) != res.Steps[i]+1 {
				return fmt.Errorf("core: particle %d trajectory length %d != steps+1 %d",
					i, len(traj), res.Steps[i]+1)
			}
			for j := 1; j < len(traj); j++ {
				if traj[j] != traj[j-1] && !g.HasEdge(int(traj[j-1]), int(traj[j])) {
					return fmt.Errorf("core: particle %d trajectory has non-edge %d->%d",
						i, traj[j-1], traj[j])
				}
			}
			if traj[len(traj)-1] != res.SettledAt[i] {
				return fmt.Errorf("core: particle %d trajectory ends at %d, settled at %d",
					i, traj[len(traj)-1], res.SettledAt[i])
			}
		}
	}
	return nil
}

// AggregateAt reconstructs the occupied set after the first k settlements,
// in settlement order. Useful for shape inspection (examples/shape2d).
func (res *Result) AggregateAt(k int) []int32 {
	if k > len(res.SettleOrder) {
		k = len(res.SettleOrder)
	}
	agg := make([]int32, 0, k)
	for i := 0; i < k; i++ {
		agg = append(agg, res.SettledAt[res.SettleOrder[i]])
	}
	return agg
}
