package core

import (
	"fmt"

	"dispersion/internal/graph"
)

// Odometer accumulates per-vertex visit counts over a process history —
// the observable the IDLA literature calls the odometer function (total
// activity per site). It is computed from recorded trajectories.
type Odometer struct {
	// Visits[v] counts arrivals at v over all particles, including the
	// settling arrival; the initial placement at the origin is counted
	// once per particle.
	Visits []int64
	// Settling[v] is 1 if some particle settled at v (always exactly one
	// per occupied vertex on a completed run).
	Settling []int8
}

// NewOdometer derives the odometer of a recorded run. It requires
// Options.Record to have been set.
func NewOdometer(g graph.Graph, res *Result) (*Odometer, error) {
	if res.Trajectories == nil {
		return nil, fmt.Errorf("core: odometer needs recorded trajectories")
	}
	o := &Odometer{
		Visits:   make([]int64, g.N()),
		Settling: make([]int8, g.N()),
	}
	for _, traj := range res.Trajectories {
		for _, v := range traj {
			o.Visits[v]++
		}
	}
	for _, v := range res.SettledAt {
		if v >= 0 {
			o.Settling[v]++
		}
	}
	return o, nil
}

// Total returns the total number of vertex arrivals, which equals total
// steps plus one initial placement per particle.
func (o *Odometer) Total() int64 {
	var s int64
	for _, v := range o.Visits {
		s += v
	}
	return s
}

// Max returns the busiest vertex and its visit count.
func (o *Odometer) Max() (vertex int, visits int64) {
	for v, c := range o.Visits {
		if c > visits {
			vertex, visits = v, c
		}
	}
	return vertex, visits
}
