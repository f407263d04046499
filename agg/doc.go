// Package agg provides mergeable online sketches for streaming
// aggregation of dispersion trials: instead of shipping (or buffering) a
// million per-trial Results, a consumer folds each Result into a
// kilobyte-sized Summary as it arrives and merges summaries across
// shards — the server-side aggregation mode of the dispersion HTTP
// server and the sketch-merge mode of the shard coordinator are both
// built on this package.
//
// Three sketches are provided, bundled per scalar column by Summary:
//
//   - Moments — count, min, max, mean and unbiased variance. The sums of
//     x and x² are accumulated in an exact fixed-point integer
//     representation (every float64 is an integer multiple of 2^-1074,
//     so sums fit a big.Int scaled by 2^1126), which makes addition
//     exactly associative and commutative: no Welford-style last-ulp
//     drift between a contiguous run and any shard split.
//   - Quantiles — a deterministic log-bucket quantile sketch (DDSketch
//     shape): values map to geometric buckets of ratio γ = (1+α)/(1-α),
//     so any quantile is answered within relative error α. Bucket
//     counts are purely additive.
//   - Histogram — a fixed-bucket-count makespan histogram / empirical
//     CDF over [0, buckets·width): when a value exceeds the range, the
//     bucket width doubles by collapsing adjacent pairs, so the final
//     state is the exact histogram at the final width. CDF is exact at
//     bucket edges and within one bucket of mass elsewhere.
//
// # Determinism and mergeability
//
// Every sketch state in this package is a pure function of the multiset
// of added values — never of arrival order — and Merge computes exactly
// the state of the combined multiset. Consequently sketches built over
// disjoint trial-range shards and merged (in any order) are
// byte-identical, once serialized, to the sketch of the contiguous run.
// The property-test suite at the repository root pins this for every
// registered process. No randomness is involved, so there is no seed to
// coordinate.
//
// # Error bounds
//
// Count, min, max, truncation/unsettled tallies and the histogram's
// bucket counts are exact. Mean and variance are exact up to one final
// float64 rounding (the accumulators themselves are exact). Quantiles
// carry relative error at most Alpha (default 1%) versus the offline
// internal/stats.Quantile of the same sample, plus the gap between
// adjacent order statistics spanned by its interpolation. The
// histogram's CDF is exact at bucket edges; between edges it
// interpolates linearly within one bucket.
//
// All sketches reject NaN and infinities, and Quantiles and Histogram
// additionally reject negative values (dispersion makespans, step
// counts and times are nonnegative).
//
// # JSON codec
//
// A summary has one canonical JSON rendering: the byte-identity above
// holds for the bytes, not only the values. Every sketch's MarshalJSON
// appends that layout directly, exactly the bytes encoding/json writes
// by reflection over the wire form, and Summary.UnmarshalJSON parses it
// directly, without reflection. Each hands the rare rest to
// encoding/json. MarshalJSON does so for a Process that needs escaping
// and for a value JSON cannot hold, so it gives encoding/json's bytes
// or error. UnmarshalJSON does so for any input outside the canonical
// layout: whitespace, reordered, unknown, missing, duplicate or
// case-variant keys, escapes, and number forms the canonical grammar
// does not use. Both readers validate through the same per-sketch
// checks, so they accept and reject the same inputs with the same
// errors. The checks refuse any summary no Add or Merge can produce, so
// an accepted summary always merges into one of its own layout: among
// them a histogram width that is not its initial width doubled, a sketch
// whose count differs from the summary's trials, a histogram on the
// total-steps column, columns of different quantile alphas, and exact
// sums beyond any sum of 2^63 float64 values.
package agg
