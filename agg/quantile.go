package agg

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// DefaultAlpha is the relative accuracy of a Quantiles sketch built by
// NewQuantiles(0) and of every Summary column: quantile answers are
// within 1% of the corresponding offline sample quantile's value.
const DefaultAlpha = 0.01

// Quantiles is a deterministic mergeable streaming-quantile sketch for
// nonnegative values, DDSketch-shaped: a positive value x lands in the
// geometric bucket i = ⌈log_γ x⌉ covering (γ^(i-1), γ^i], with
// γ = (1+α)/(1-α), and zeros count separately. Reporting the bucket
// midpoint bounds the relative error of any quantile by α.
//
// The sketch state is a pure function of the multiset of added values —
// bucket counts are additive and no randomness is involved — so
// per-shard sketches merged in any order are identical to the sketch of
// the contiguous stream. Size is one counter per occupied bucket:
// O(log(max/min)/α) regardless of stream length.
//
// Create one with NewQuantiles; the zero value is not usable.
type Quantiles struct {
	alpha  float64
	gamma  float64 // (1+alpha)/(1-alpha)
	lgamma float64 // log(gamma)
	n      int64
	zero   int64   // count of values exactly 0
	keys   []int32 // sorted occupied bucket indices
	counts []int64 // counts[i] pairs with keys[i]
}

// NewQuantiles returns an empty sketch with the given relative accuracy
// target in (0, 1); 0 means DefaultAlpha.
func NewQuantiles(alpha float64) *Quantiles {
	if alpha == 0 {
		alpha = DefaultAlpha
	}
	if alpha <= 0 || alpha >= 1 || math.IsNaN(alpha) {
		panic(fmt.Sprintf("agg: quantile accuracy alpha %v outside (0,1)", alpha))
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Quantiles{alpha: alpha, gamma: gamma, lgamma: math.Log(gamma)}
}

// Alpha returns the sketch's relative accuracy target.
func (s *Quantiles) Alpha() float64 { return s.alpha }

// N returns the number of values added.
func (s *Quantiles) N() int64 { return s.n }

// Add folds one nonnegative value in; it panics on negative or
// non-finite input.
func (s *Quantiles) Add(x float64) {
	if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
		panic(fmt.Sprintf("agg: quantile sketch cannot hold %v (want a finite nonnegative value)", x))
	}
	s.n++
	if x == 0 {
		s.zero++
		return
	}
	s.bump(s.index(x), 1)
}

// index maps a positive value to its bucket.
func (s *Quantiles) index(x float64) int32 {
	return int32(math.Ceil(math.Log(x) / s.lgamma))
}

// bump adds c to bucket key, inserting it in sorted position if absent.
func (s *Quantiles) bump(key int32, c int64) {
	i := sort.Search(len(s.keys), func(i int) bool { return s.keys[i] >= key })
	if i < len(s.keys) && s.keys[i] == key {
		s.counts[i] += c
		return
	}
	s.keys = append(s.keys, 0)
	copy(s.keys[i+1:], s.keys[i:])
	s.keys[i] = key
	s.counts = append(s.counts, 0)
	copy(s.counts[i+1:], s.counts[i:])
	s.counts[i] = c
}

// Merge folds another sketch in; o is left unchanged. The accuracy
// targets must match — merging sketches with different bucket layouts
// has no exact meaning.
func (s *Quantiles) Merge(o *Quantiles) error {
	if s.alpha != o.alpha {
		return fmt.Errorf("agg: cannot merge quantile sketches with alpha %v and %v", s.alpha, o.alpha)
	}
	s.n += o.n
	s.zero += o.zero
	for i, key := range o.keys {
		s.bump(key, o.counts[i])
	}
	return nil
}

// value returns the representative value of a bucket: the arithmetic
// midpoint of (γ^(i-1), γ^i], within relative distance α of every point
// of the bucket, capped at math.MaxFloat64.
//
// At the top of the float64 range the product can overflow although the
// midpoint is finite (amd64's math.Exp already returns +Inf above about
// 709.44); the midpoint is then taken at half scale, exp(a−ln 2)·(1+γ).
// The cap moves only a midpoint past the largest finite value, which a
// wide bucket (a large α) at the top of the range can have. Every finite
// value of such a bucket lies between the cap and the midpoint, so the cap
// is nearer to it than the midpoint is, and its relative error stays
// within α.
func (s *Quantiles) value(key int32) float64 {
	a := float64(key-1) * s.lgamma
	v := math.Exp(a) * (1 + s.gamma) / 2
	if math.IsInf(v, 1) {
		v = math.Exp(a-math.Ln2) * (1 + s.gamma)
	}
	return min(v, math.MaxFloat64)
}

// rank returns the representative value of the r-th smallest element
// (0-indexed).
func (s *Quantiles) rank(r int64) float64 {
	if r < s.zero {
		return 0
	}
	cum := s.zero
	for i, key := range s.keys {
		cum += s.counts[i]
		if r < cum {
			return s.value(key)
		}
	}
	// r == n-1 lands here only through float round-off in Query; answer
	// the maximum bucket.
	return s.value(s.keys[len(s.keys)-1])
}

// Query returns the q-th quantile (0 <= q <= 1) under the same
// position convention as internal/stats.Quantile: linear interpolation
// between the order statistics bracketing position q·(n-1). The answer
// is within relative error Alpha of the interpolated exact sample
// quantile. It panics on an empty sketch.
func (s *Quantiles) Query(q float64) float64 {
	if s.n == 0 {
		panic("agg: quantile query on an empty sketch")
	}
	if q <= 0 {
		return s.rank(0)
	}
	if q >= 1 {
		return s.rank(s.n - 1)
	}
	pos := q * float64(s.n-1)
	lo := int64(pos)
	frac := pos - float64(lo)
	if frac == 0 || lo+1 >= s.n {
		return s.rank(lo)
	}
	return s.rank(lo)*(1-frac) + s.rank(lo+1)*frac
}

// quantilesJSON is the wire form of Quantiles. Keys are serialized in
// sorted order, so equal sketch states serialize to equal bytes.
type quantilesJSON struct {
	// Alpha is the relative accuracy target.
	Alpha float64 `json:"alpha"`
	// N is the number of values added; Zero of them were exactly 0.
	N    int64 `json:"n"`
	Zero int64 `json:"zero,omitempty"`
	// Keys are the occupied bucket indices in ascending order; Counts
	// pairs with them.
	Keys   []int32 `json:"keys"`
	Counts []int64 `json:"counts"`
	// Q50, Q90, Q99 are derived convenience quantiles for dashboards;
	// UnmarshalJSON ignores them.
	Q50 float64 `json:"q50,omitempty"`
	Q90 float64 `json:"q90,omitempty"`
	Q99 float64 `json:"q99,omitempty"`
}

// MarshalJSON renders the sketch (bucket layout plus a few derived
// quantiles).
func (s *Quantiles) MarshalJSON() ([]byte, error) {
	if b, ok := s.appendJSON(nil); ok {
		return b, nil
	}
	return json.Marshal(s.wire())
}

// wire returns the sketch's wire form.
func (s *Quantiles) wire() quantilesJSON {
	w := quantilesJSON{Alpha: s.alpha, N: s.n, Zero: s.zero, Keys: s.keys, Counts: s.counts}
	if w.Keys == nil {
		w.Keys = []int32{}
	}
	if w.Counts == nil {
		w.Counts = []int64{}
	}
	if s.n > 0 {
		w.Q50, w.Q90, w.Q99 = s.Query(0.5), s.Query(0.9), s.Query(0.99)
	}
	return w
}

// UnmarshalJSON restores a sketch serialized by MarshalJSON.
func (s *Quantiles) UnmarshalJSON(b []byte) error {
	var w quantilesJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	return s.restore(&w)
}

// restore sets s to the sketch w describes, or fails if no Add or Merge
// can produce it. Both summary decoders validate through it.
func (s *Quantiles) restore(w *quantilesJSON) error {
	if w.Alpha <= 0 || w.Alpha >= 1 {
		return fmt.Errorf("agg: bad quantile sketch alpha %v", w.Alpha)
	}
	if len(w.Keys) != len(w.Counts) {
		return fmt.Errorf("agg: quantile sketch holds %d keys but %d counts", len(w.Keys), len(w.Counts))
	}
	// Queries walk the buckets trusting that the zero and bucket counts
	// are positive and add up to n; a sketch breaking that would fail
	// later, in a merge or a marshal, far from the bytes at fault.
	if w.Zero < 0 {
		return fmt.Errorf("agg: quantile sketch holds %d zeros", w.Zero)
	}
	total := w.Zero
	for i, c := range w.Counts {
		if i > 0 && w.Keys[i-1] >= w.Keys[i] {
			return fmt.Errorf("agg: quantile sketch keys are not strictly increasing")
		}
		if c <= 0 {
			return fmt.Errorf("agg: quantile sketch bucket %d holds count %d", w.Keys[i], c)
		}
		if total > math.MaxInt64-c {
			return fmt.Errorf("agg: quantile sketch counts overflow int64")
		}
		total += c
	}
	if total != w.N {
		return fmt.Errorf("agg: quantile sketch has n = %d but holds %d values", w.N, total)
	}
	*s = *NewQuantiles(w.Alpha)
	// The keys increase, so the ends bound them: every one must be the
	// bucket of some finite positive value.
	if k := len(w.Keys); k > 0 &&
		(w.Keys[0] < s.index(math.SmallestNonzeroFloat64) || w.Keys[k-1] > s.index(math.MaxFloat64)) {
		return fmt.Errorf("agg: quantile sketch keys span [%d, %d], past the buckets of finite values at alpha %v",
			w.Keys[0], w.Keys[k-1], w.Alpha)
	}
	s.n, s.zero = w.N, w.Zero
	if len(w.Keys) > 0 {
		s.keys, s.counts = w.Keys, w.Counts
	}
	return nil
}
