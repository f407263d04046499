package agg

import (
	"encoding/json"
	"fmt"
	"math"
)

// DefaultHistBuckets is the bucket count of a Histogram built by
// NewHistogram(0, ...) and of every Summary makespan column.
const DefaultHistBuckets = 64

// DefaultHistWidth is the initial bucket width of a Histogram built by
// NewHistogram(..., 0).
const DefaultHistWidth = 1

// Histogram is a fixed-bucket-count histogram / empirical CDF over
// nonnegative values. It always holds exactly k buckets of equal width
// covering [0, k·width): when a value lands beyond the range, adjacent
// bucket pairs are collapsed and the width doubles until it fits.
// Because widths only double from a fixed origin, every coarser bucket
// boundary is also a finer one — so the state after any sequence of
// collapses equals the exact histogram of the whole multiset at the
// final width, and Merge (which collapses the finer sketch to the
// coarser width before adding counts) is order-independent.
//
// Create one with NewHistogram; the zero value is not usable.
type Histogram struct {
	k      int     // bucket count, even
	w0     float64 // initial width (merge compatibility key)
	width  float64 // current width: w0·2^j
	n      int64
	counts []int64 // len k
}

// NewHistogram returns an empty histogram with the given bucket count
// (even, at least 2; 0 means DefaultHistBuckets) and initial bucket
// width (positive; 0 means DefaultHistWidth).
func NewHistogram(buckets int, width float64) *Histogram {
	if buckets == 0 {
		buckets = DefaultHistBuckets
	}
	if buckets < 2 || buckets%2 != 0 {
		panic(fmt.Sprintf("agg: histogram bucket count %d is not an even number >= 2", buckets))
	}
	if width == 0 {
		width = DefaultHistWidth
	}
	if width < 0 || math.IsNaN(width) || math.IsInf(width, 0) {
		panic(fmt.Sprintf("agg: histogram bucket width %v is not positive and finite", width))
	}
	return &Histogram{k: buckets, w0: width, width: width, counts: make([]int64, buckets)}
}

// Buckets returns the fixed bucket count.
func (h *Histogram) Buckets() int { return h.k }

// Width returns the current bucket width; bucket i covers
// [i·Width, (i+1)·Width).
func (h *Histogram) Width() float64 { return h.width }

// N returns the number of values added.
func (h *Histogram) N() int64 { return h.n }

// Count returns the number of values in bucket i.
func (h *Histogram) Count(i int) int64 { return h.counts[i] }

// collapse halves the resolution: counts[i] = counts[2i] + counts[2i+1]
// and the width doubles, preserving the exact-histogram invariant.
func (h *Histogram) collapse() {
	half := h.k / 2
	for i := 0; i < half; i++ {
		h.counts[i] = h.counts[2*i] + h.counts[2*i+1]
	}
	for i := half; i < h.k; i++ {
		h.counts[i] = 0
	}
	h.width *= 2
}

// Add folds one nonnegative value in; it panics on negative or
// non-finite input.
func (h *Histogram) Add(x float64) {
	if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
		panic(fmt.Sprintf("agg: histogram cannot hold %v (want a finite nonnegative value)", x))
	}
	for x >= float64(h.k)*h.width {
		h.collapse()
	}
	i := int(x / h.width)
	if i >= h.k { // guard the x slightly-below-range float edge
		i = h.k - 1
	}
	h.n++
	h.counts[i]++
}

// Merge folds another histogram in; o is left unchanged. The bucket
// counts and initial widths must match, so the two bucket grids nest.
func (h *Histogram) Merge(o *Histogram) error {
	if h.k != o.k || h.w0 != o.w0 {
		return fmt.Errorf("agg: cannot merge histograms with layouts %d×%v and %d×%v",
			h.k, h.w0, o.k, o.w0)
	}
	// Collapse whichever sketch is finer up to the common (coarser)
	// width. o must stay unchanged, so collapse a copy of its counts.
	for h.width < o.width {
		h.collapse()
	}
	oc, ow := o.counts, o.width
	if ow < h.width {
		oc = append([]int64(nil), oc...)
		for ow < h.width {
			half := h.k / 2
			for i := 0; i < half; i++ {
				oc[i] = oc[2*i] + oc[2*i+1]
			}
			for i := half; i < h.k; i++ {
				oc[i] = 0
			}
			ow *= 2
		}
	}
	h.n += o.n
	for i, c := range oc {
		h.counts[i] += c
	}
	return nil
}

// CDF returns the fraction of added values that are <= x, exact
// whenever x is a bucket edge and linearly interpolated within a
// bucket otherwise. It returns 0 on an empty histogram.
func (h *Histogram) CDF(x float64) float64 {
	if h.n == 0 || x < 0 {
		return 0
	}
	if x >= float64(h.k)*h.width {
		return 1
	}
	i := int(x / h.width)
	if i >= h.k {
		i = h.k - 1
	}
	var below int64
	for j := 0; j < i; j++ {
		below += h.counts[j]
	}
	frac := x/h.width - float64(i)
	return (float64(below) + frac*float64(h.counts[i])) / float64(h.n)
}

// histogramJSON is the wire form of Histogram: the full fixed-length
// counts slice, so equal states serialize to equal bytes.
type histogramJSON struct {
	// Buckets is the fixed bucket count; Width0 the initial width.
	Buckets int     `json:"buckets"`
	Width0  float64 `json:"width0"`
	// Width is the current bucket width (Width0 doubled zero or more
	// times); bucket i covers [i·Width, (i+1)·Width).
	Width float64 `json:"width"`
	// N is the number of values added.
	N int64 `json:"n"`
	// Counts holds all Buckets bucket counts.
	Counts []int64 `json:"counts"`
}

// MarshalJSON renders the histogram.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	if b, ok := h.appendJSON(nil); ok {
		return b, nil
	}
	return json.Marshal(h.wire())
}

// wire returns the histogram's wire form.
func (h *Histogram) wire() histogramJSON {
	return histogramJSON{Buckets: h.k, Width0: h.w0, Width: h.width, N: h.n, Counts: h.counts}
}

// UnmarshalJSON restores a histogram serialized by MarshalJSON.
func (h *Histogram) UnmarshalJSON(b []byte) error {
	var w histogramJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	return h.restore(&w)
}

// restore sets h to the histogram w describes, or fails if no Add or
// Merge can produce it. Both summary decoders validate through it.
func (h *Histogram) restore(w *histogramJSON) error {
	if w.Buckets < 2 || w.Buckets%2 != 0 || w.Width0 <= 0 || w.Width <= 0 {
		return fmt.Errorf("agg: bad histogram layout %d×%v (width %v)", w.Buckets, w.Width0, w.Width)
	}
	// Widths only double from width0, and Merge relies on that to bring
	// two grids to one width before it adds their counts.
	f0, e0 := math.Frexp(w.Width0)
	if f, e := math.Frexp(w.Width); f != f0 || e < e0 {
		return fmt.Errorf("agg: histogram width %v is not its initial width %v doubled zero or more times", w.Width, w.Width0)
	}
	if len(w.Counts) != w.Buckets {
		return fmt.Errorf("agg: histogram holds %d counts for %d buckets", len(w.Counts), w.Buckets)
	}
	var total int64
	for _, c := range w.Counts {
		if c < 0 {
			return fmt.Errorf("agg: histogram holds a negative count %d", c)
		}
		if total > math.MaxInt64-c {
			return fmt.Errorf("agg: histogram counts overflow int64")
		}
		total += c
	}
	if total != w.N {
		return fmt.Errorf("agg: histogram has n = %d but holds %d values", w.N, total)
	}
	*h = Histogram{k: w.Buckets, w0: w.Width0, width: w.Width, n: w.N, counts: w.Counts}
	return nil
}
