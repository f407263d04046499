package core_test

import (
	"fmt"

	"dispersion/internal/core"
	"dispersion/internal/graph"
	"dispersion/internal/rng"
)

// Run the Sequential-IDLA on a small cycle with a fixed seed. The first
// particle settles at the origin instantly; the others walk.
func ExampleSequentialInto() {
	g := graph.Cycle(8)
	var res core.Result
	if err := core.SequentialInto(g, 0, core.Options{}, rng.New(42), nil, &res); err != nil {
		panic(err)
	}
	fmt.Println("particles:", len(res.Steps))
	fmt.Println("particle 0 steps:", res.Steps[0])
	fmt.Println("every vertex settled:", res.Check(g) == nil)
	// Output:
	// particles: 8
	// particle 0 steps: 0
	// every vertex settled: true
}

// The Parallel-IDLA's dispersion time equals its number of rounds: the
// last particle to settle has moved in every round.
func ExampleParallelInto() {
	g := graph.Complete(16)
	var res core.Result
	if err := core.ParallelInto(g, 0, core.Options{}, rng.New(7), nil, &res); err != nil {
		panic(err)
	}
	lastClock := res.SettleClock[len(res.SettleClock)-1]
	fmt.Println("dispersion equals final round:", res.Dispersion == lastClock)
	// Output:
	// dispersion equals final round: true
}

// The Section 6.2 variant with fewer particles than vertices: only k
// vertices end up occupied.
func ExampleOptions_particles() {
	g := graph.Hypercube(4)
	var res core.Result
	if err := core.SequentialInto(g, 0, core.Options{Particles: 5}, rng.New(1), nil, &res); err != nil {
		panic(err)
	}
	fmt.Println("settled particles:", len(res.SettledAt))
	// Output:
	// settled particles: 5
}
