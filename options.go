package dispersion

import "dispersion/internal/core"

// Option configures a single process run. Options compose left to right;
// later options override earlier ones.
type Option func(*config)

// config collects the resolved settings of one run.
type config struct {
	core core.Options
}

// buildOptions folds a list of options into the internal options struct.
func buildOptions(opts []Option) core.Options {
	var c config
	for _, apply := range opts {
		apply(&c)
	}
	return c.core
}

// WithLazy makes every particle move as a lazy random walk (stay with
// probability 1/2). Theorem 4.3: this doubles dispersion up to 1+o(1).
func WithLazy() Option {
	return func(c *config) { c.core.Lazy = true }
}

// WithRecord keeps each particle's full trajectory (the rows of the
// paper's block representation). Memory is O(total steps).
func WithRecord() Option {
	return func(c *config) { c.core.Record = true }
}

// WithParticles disperses k particles instead of one per vertex (the
// Section 6.2 variant with fewer particles than sites). k must be in
// [1, n]; the surplus above n could never settle.
func WithParticles(k int) Option {
	return func(c *config) { c.core.Particles = k }
}

// WithRandomOrigins samples each particle's start vertex uniformly at
// random instead of using the common origin (the Section 6.2 variant). A
// particle starting on an unoccupied vertex settles there with zero steps
// under the standard rule; the settle-rule processes apply their rule to
// that step-0 standing instead.
func WithRandomOrigins() Option {
	return func(c *config) { c.core.RandomOrigins = true }
}

// WithSettleRule overrides the settlement rule of the standard Sequential
// process (Proposition A.1): a particle standing on a vacant vertex
// settles only if rule accepts, and otherwise moves on. The default rule
// settles immediately on any vacant vertex. Only "sequential",
// "ct-sequential" and their lazy variants honour it; every other process
// ignores it, and WithBatch rejects it.
func WithSettleRule(rule SettleRule) Option {
	return func(c *config) { c.core.Rule = rule }
}

// WithSettleParam sets the scalar parameter of the registered settle-rule
// processes (Proposition A.1): the per-visit settle probability q of
// "sequential-geom" (default 1/2) and the minimum step count T of
// "sequential-threshold" (default n, the graph size). Zero leaves the
// process default; the standard processes ignore it.
func WithSettleParam(p float64) Option {
	return func(c *config) { c.core.SettleParam = p }
}

// WithCapacity makes every vertex of the capacity processes ("capacity",
// "capacity-parallel") host up to c settled particles, the
// k-particles-per-vertex load-balancing generalization. Zero means the
// default capacity 2; the unit-capacity processes ignore it. By default a
// capacity run disperses c·n particles (filling every vertex to capacity);
// combine with WithParticles for partial loads.
func WithCapacity(c int) Option {
	return func(cfg *config) { cfg.core.Capacity = c }
}

// WithCapacities gives every vertex of the capacity processes its own
// capacity: vertex v hosts up to caps[v] settled particles. The vector
// must have one entry per vertex, each at least 1, and is mutually
// exclusive with WithCapacity. By default a run disperses Sum(caps)
// particles (filling every vertex to its capacity); combine with
// WithParticles for partial loads. Result.Capacity reports the vector's
// maximum. The slice is retained, not copied; callers must not mutate it
// while the run is in flight.
func WithCapacities(caps []int) Option {
	return func(cfg *config) { cfg.core.Capacities = caps }
}

// WithBatch lets the run step trials together in blocks of at most b per
// worker. It changes no result: a batched trial draws the stream its
// unbatched twin draws, seeded by the same (seed, experiment, trial)
// lineage, in the same order, so the results are byte-identical to the
// unbatched path's for every b, worker count and trial sharding. Only
// "sequential" and "lazy-sequential" on a table-backed kernel (CSR and
// regular adjacency, the weighted alias tables) run a lane, where a
// block's trials advance together so their cache misses overlap, worth
// 2× and more trials/sec where walks are memory-bound; on short walks
// over small tables the lane can lose. b is only a cap: blocks narrow so
// that every worker gets one and the lanes and undelivered blocks fit a
// fixed memory bound. Every other batched job is its unbatched twin: a
// kernel that computes its neighbour has no miss to overlap, and the
// geometric, threshold and capacity laws have no lane.
//
// Only the Sequential-family processes ("sequential", "sequential-geom",
// "sequential-threshold", "capacity" and their lazy variants) have a
// batched form; b must lie in 1..65,536, and WithRecord and
// WithSettleRule stay unbatched-only. Zero selects the unbatched path.
func WithBatch(b int) Option {
	return func(c *config) { c.core.Batch = b }
}

// WithMaxSteps aborts a run whose total step count exceeds n, marking the
// Result as Truncated; zero means no bound. Guards against misconfigured
// experiments.
func WithMaxSteps(n int64) Option {
	return func(c *config) { c.core.MaxSteps = n }
}

// WithRandomPriority resolves same-round settlement conflicts in the
// Parallel process by a uniformly random priority permutation instead of
// least-index (the σ(L) device in the proof of Theorem 4.2).
func WithRandomPriority() Option {
	return func(c *config) { c.core.RandomPriority = true }
}
