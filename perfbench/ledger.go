package main

import (
	"fmt"
	"io"
	"slices"

	"dispersion/internal/stats"
)

// percentile returns the q-quantile of xs under internal/stats' rule:
// linear interpolation at position q·(n-1) of the sorted sample. With 200
// samples the 0.95 position is 189.05, which leaves ten samples above it.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(slices.Sorted(slices.Values(xs)), q)
}

// ledgerRow reconciles one configuration's engine cost with its layers,
// all in nanoseconds per trial.
type ledgerRow struct {
	Config   string  `json:"config"`
	Workers  int     `json:"workers"`
	EngineNS float64 `json:"engine_ns_per_trial"` // Engine.Run wall time / trials
	CoreNS   float64 `json:"core_ns_per_trial"`   // single-thread *Into or RunLane
	Steps    float64 `json:"steps_per_trial"`
	StepNS   float64 `json:"ns_per_step"` // kernel walk (or lane slot-step) cost
}

// walkNS is the part of a trial's core time the kernel's step cost
// explains.
func (r ledgerRow) walkNS() float64 { return r.Steps * r.StepNS }

// settleNS is core time not spent stepping: occupancy probes, settlement
// bookkeeping, and the gap between fixed-occupancy ns/step and the live
// run.
func (r ledgerRow) settleNS() float64 { return r.CoreNS - r.walkNS() }

// overheadNS is the engine's cost beyond the single-thread core run, in
// worker-nanoseconds: scheduling, in-order delivery, the callback, and
// any loss of parallel efficiency.
func (r ledgerRow) overheadNS() float64 { return float64(r.Workers)*r.EngineNS - r.CoreNS }

// residualShare is settle plus overhead as a share of the trial's total
// worker time: the part of ns/trial that is not walking.
func (r ledgerRow) residualShare() float64 {
	total := float64(r.Workers) * r.EngineNS
	if total == 0 {
		return 0
	}
	return (r.settleNS() + r.overheadNS()) / total
}

// writeLedger prints the ledger table.
func writeLedger(w io.Writer, rows []ledgerRow) {
	fmt.Fprintln(w, "ledger (ns per trial; W = engine workers):")
	fmt.Fprintf(w, "  %-26s %12s %12s %12s %12s %12s %9s\n",
		"config", "engine", "W x engine", "steps x ns", "settle", "overhead", "residual")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-26s %12.0f %12.0f %12.0f %12.0f %12.0f %8.1f%%\n",
			r.Config, r.EngineNS, float64(r.Workers)*r.EngineNS, r.walkNS(),
			r.settleNS(), r.overheadNS(), 100*r.residualShare())
	}
	fmt.Fprintln(w, "  steps x ns uses the kernel's WalkUntilVacant ns/step on a fixed occupancy")
	fmt.Fprintln(w, "  (StepLane ns/slot-step for the batch-64 rows). settle = core - steps x ns, so it")
	fmt.Fprintln(w, "  also absorbs the difference between fixed-occupancy ns/step and the live run;")
	fmt.Fprintln(w, "  overhead = W x engine - core; residual = (settle + overhead) / (W x engine).")
}
