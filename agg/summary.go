package agg

import (
	"encoding/json"
	"fmt"

	"dispersion"
)

// MixedProcess is the sentinel Summary.Process value recorded when
// results from more than one process (or capacity) were folded into the
// same summary.
const MixedProcess = "mixed"

// Config parameterizes the sketches a Summary carries. The zero value
// selects the package defaults.
type Config struct {
	// Alpha is the quantile sketches' relative accuracy target; 0 means
	// DefaultAlpha.
	Alpha float64
	// HistBuckets is the makespan histogram's fixed bucket count (even,
	// >= 2); 0 means DefaultHistBuckets.
	HistBuckets int
	// HistWidth is the makespan histogram's initial bucket width; 0
	// means DefaultHistWidth.
	HistWidth float64
}

// Column bundles the sketches tracking one scalar column of the result
// stream (makespan or total steps).
type Column struct {
	// Moments carries count/min/max/mean/variance.
	Moments *Moments
	// Quantiles answers arbitrary quantiles within relative error Alpha.
	Quantiles *Quantiles
	// Histogram is the fixed-bucket empirical CDF; nil on columns that
	// do not carry one (only the makespan column does).
	Histogram *Histogram
}

func newColumn(cfg Config, hist bool) *Column {
	c := &Column{Moments: NewMoments(), Quantiles: NewQuantiles(cfg.Alpha)}
	if hist {
		c.Histogram = NewHistogram(cfg.HistBuckets, cfg.HistWidth)
	}
	return c
}

// Add folds one value into every sketch of the column.
func (c *Column) Add(x float64) {
	c.Moments.Add(x)
	c.Quantiles.Add(x)
	if c.Histogram != nil {
		c.Histogram.Add(x)
	}
}

// Merge folds another column in; o is left unchanged.
func (c *Column) Merge(o *Column) error {
	c.Moments.Merge(o.Moments)
	if err := c.Quantiles.Merge(o.Quantiles); err != nil {
		return err
	}
	if (c.Histogram == nil) != (o.Histogram == nil) {
		return fmt.Errorf("agg: cannot merge a column with a histogram into one without")
	}
	if c.Histogram != nil {
		return c.Histogram.Merge(o.Histogram)
	}
	return nil
}

// columnJSON is the wire form of Column.
type columnJSON struct {
	Moments   *Moments   `json:"moments"`
	Quantiles *Quantiles `json:"quantiles"`
	Histogram *Histogram `json:"histogram,omitempty"`
}

// MarshalJSON renders the column's sketches.
func (c *Column) MarshalJSON() ([]byte, error) {
	if b, ok := c.appendJSON(nil); ok {
		return b, nil
	}
	return json.Marshal(columnJSON{Moments: c.Moments, Quantiles: c.Quantiles, Histogram: c.Histogram})
}

// UnmarshalJSON restores a column serialized by MarshalJSON.
func (c *Column) UnmarshalJSON(b []byte) error {
	var w columnJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	return c.restore(&w)
}

// restore sets c to the column w describes, or fails if it lacks a
// sketch. Both summary decoders validate through it.
func (c *Column) restore(w *columnJSON) error {
	if w.Moments == nil || w.Quantiles == nil {
		return fmt.Errorf("agg: column is missing its moments or quantiles sketch")
	}
	c.Moments, c.Quantiles, c.Histogram = w.Moments, w.Quantiles, w.Histogram
	return nil
}

// holds fails unless each of the column's sketches holds n values, as
// Add and Merge keep them.
func (c *Column) holds(name string, n int64) error {
	hist := n
	if c.Histogram != nil {
		hist = c.Histogram.n
	}
	for _, sk := range [...]struct {
		kind string
		n    int64
	}{{"moments", c.Moments.n}, {"quantile", c.Quantiles.n}, {"histogram", hist}} {
		if sk.n != n {
			return fmt.Errorf("agg: summary of %d trials holds %d values in its %s %s sketch", n, sk.n, name, sk.kind)
		}
	}
	return nil
}

// Summary is the per-job aggregate: one Column of sketches per scalar
// result field, plus exact identity and tally fields. Like the sketches
// it bundles, a Summary is a pure function of the multiset of Results
// folded in, so shard summaries merged in any order marshal to bytes
// identical to the contiguous run's summary.
//
// Create one with NewSummary or Config.NewSummary; the zero value is
// not usable. A Summary is not safe for concurrent use; callers
// serialize Add/Merge (the server folds under the job lock).
type Summary struct {
	// Process is the registry name of the process whose results were
	// folded in, or MixedProcess if they disagreed.
	Process string
	// Continuous mirrors Result.Continuous of the folded results (false
	// under MixedProcess disagreement).
	Continuous bool
	// Capacity mirrors Result.Capacity (0 under disagreement).
	Capacity int
	// Trials is the number of results folded in; Truncated of them were
	// cut off by a step cap, leaving Unsettled particles in total.
	Trials    int64
	Truncated int64
	Unsettled int64
	// Makespan tracks Result.Makespan() — rounds/steps for discrete
	// processes, real time for continuous ones. It carries the
	// histogram/CDF.
	Makespan *Column
	// TotalSteps tracks Result.TotalSteps.
	TotalSteps *Column

	cfg Config
}

// NewSummary returns an empty summary with default sketch parameters.
func NewSummary() *Summary { return Config{}.NewSummary() }

// NewSummary returns an empty summary with the config's sketch
// parameters.
func (cfg Config) NewSummary() *Summary {
	return &Summary{
		Makespan:   newColumn(cfg, true),
		TotalSteps: newColumn(cfg, false),
		cfg:        cfg,
	}
}

// Add folds one result in. It reads only scalar fields of res and
// retains nothing, so it is safe under Engine.ReuseResults.
func (s *Summary) Add(res *dispersion.Result) {
	if s.Trials == 0 {
		s.Process = res.Process
		s.Continuous = res.Continuous
		s.Capacity = res.Capacity
	} else if s.Process != res.Process || s.Continuous != res.Continuous || s.Capacity != res.Capacity {
		s.markMixed()
	}
	s.Trials++
	if res.Truncated {
		s.Truncated++
	}
	s.Unsettled += int64(res.Unsettled())
	s.Makespan.Add(res.Makespan())
	s.TotalSteps.Add(float64(res.TotalSteps))
}

func (s *Summary) markMixed() {
	s.Process = MixedProcess
	s.Continuous = false
	s.Capacity = 0
}

// Merge folds another summary in; o is left unchanged. An empty
// receiver adopts o's identity fields; otherwise mismatched identities
// degrade to MixedProcess. Sketch layouts (alpha, histogram geometry)
// must match.
func (s *Summary) Merge(o *Summary) error {
	if o.Trials == 0 {
		return nil
	}
	if s.Trials == 0 {
		s.Process = o.Process
		s.Continuous = o.Continuous
		s.Capacity = o.Capacity
	} else if s.Process != o.Process || s.Continuous != o.Continuous || s.Capacity != o.Capacity {
		s.markMixed()
	}
	if err := s.Makespan.Merge(o.Makespan); err != nil {
		return err
	}
	if err := s.TotalSteps.Merge(o.TotalSteps); err != nil {
		return err
	}
	s.Trials += o.Trials
	s.Truncated += o.Truncated
	s.Unsettled += o.Unsettled
	return nil
}

// summaryJSON is the wire form of Summary. Field order is fixed and the
// nested sketches serialize canonically, so summaries over equal result
// multisets marshal to equal bytes.
type summaryJSON struct {
	Process    string  `json:"process"`
	Continuous bool    `json:"continuous,omitempty"`
	Capacity   int     `json:"capacity,omitempty"`
	Trials     int64   `json:"trials"`
	Truncated  int64   `json:"truncated,omitempty"`
	Unsettled  int64   `json:"unsettled,omitempty"`
	Makespan   *Column `json:"makespan"`
	TotalSteps *Column `json:"total_steps"`
}

// MarshalJSON renders the summary canonically: summaries over the same
// result multiset produce byte-identical JSON.
func (s *Summary) MarshalJSON() ([]byte, error) {
	// 2 KiB holds a shard's sketch in one allocation: 32 trials on
	// complete:256 write about 1.3 KB.
	if b, ok := s.appendJSON(make([]byte, 0, 2048)); ok {
		return b, nil
	}
	return json.Marshal(summaryJSON{
		Process: s.Process, Continuous: s.Continuous, Capacity: s.Capacity,
		Trials: s.Trials, Truncated: s.Truncated, Unsettled: s.Unsettled,
		Makespan: s.Makespan, TotalSteps: s.TotalSteps,
	})
}

// decodeJSON is UnmarshalJSON's encoding/json path, for input outside
// the canonical layout.
func (s *Summary) decodeJSON(b []byte) error {
	var w summaryJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	return s.restore(&w)
}

// restore sets s to the summary w describes, or fails if no Add or Merge
// can produce it. Both decoders validate through it.
func (s *Summary) restore(w *summaryJSON) error {
	if w.Makespan == nil || w.TotalSteps == nil {
		return fmt.Errorf("agg: summary is missing its makespan or total-steps column")
	}
	if w.Makespan.Histogram == nil {
		return fmt.Errorf("agg: summary makespan column is missing its histogram")
	}
	// One Config lays out both columns, and only the makespan column
	// carries a histogram; Merge refuses anything else.
	if w.TotalSteps.Histogram != nil {
		return fmt.Errorf("agg: summary total-steps column carries a histogram")
	}
	if a, b := w.Makespan.Quantiles.Alpha(), w.TotalSteps.Quantiles.Alpha(); a != b {
		return fmt.Errorf("agg: summary columns have quantile alphas %v and %v", a, b)
	}
	if err := w.Makespan.holds("makespan", w.Trials); err != nil {
		return err
	}
	if err := w.TotalSteps.holds("total-steps", w.Trials); err != nil {
		return err
	}
	*s = Summary{
		Process: w.Process, Continuous: w.Continuous, Capacity: w.Capacity,
		Trials: w.Trials, Truncated: w.Truncated, Unsettled: w.Unsettled,
		Makespan: w.Makespan, TotalSteps: w.TotalSteps,
		cfg: Config{
			Alpha:       w.Makespan.Quantiles.Alpha(),
			HistBuckets: w.Makespan.Histogram.Buckets(),
			HistWidth:   w.Makespan.Histogram.w0,
		},
	}
	return nil
}
