package server

import (
	"testing"

	"dispersion"
	"dispersion/agg"
)

// Only a results stream waits on each trial, so append wakes the
// notifier of a job that buffers results and leaves a summary-only job's
// alone; its waiters wake on the terminal state.
func TestAppendWakesOnlyBufferingJobs(t *testing.T) {
	for _, summaryOnly := range []bool{false, true} {
		j := &Job{m: &Manager{}, tenant: &tenant{}, summaryOnly: summaryOnly,
			notify: make(chan struct{}), summary: agg.NewSummary()}
		wait := j.notify
		j.append(&dispersion.Result{Process: "sequential", SettledAt: []int32{0}, Capacity: 1})
		woke := false
		select {
		case <-wait:
			woke = true
		default:
		}
		if woke == summaryOnly {
			t.Errorf("summary_only=%v: append woke the notifier: %v", summaryOnly, woke)
		}
		j.setState(StateDone, "")
		select {
		case <-wait:
		default:
			if summaryOnly {
				t.Error("the terminal state did not wake a summary-only job's waiter")
			}
		}
	}
}
