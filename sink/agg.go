package sink

import (
	"encoding/json"
	"fmt"
	"io"

	"dispersion"
	"dispersion/agg"
)

// Aggregator is the streaming-aggregation sink: instead of persisting
// trials it folds each Result into an agg.Summary, so a million-trial
// run retains kilobytes. It reads only scalar Result fields and retains
// nothing, which makes it safe under Engine.ReuseResults, like every
// sink in this package.
//
// Like the other sinks, an Aggregator is not safe for concurrent Write
// calls; Engine.Run delivers trials from a single goroutine.
type Aggregator struct {
	sum *agg.Summary
}

// NewAggregator returns an aggregator folding into a fresh summary with
// default sketch parameters.
func NewAggregator() *Aggregator {
	return &Aggregator{sum: agg.NewSummary()}
}

// NewAggregatorWith returns an aggregator folding into a fresh summary
// with the given sketch parameters.
func NewAggregatorWith(cfg agg.Config) *Aggregator {
	return &Aggregator{sum: cfg.NewSummary()}
}

// Write folds one trial into the summary.
func (a *Aggregator) Write(t dispersion.Trial) error {
	a.sum.Add(t.Result)
	return nil
}

// Summary returns the summary aggregated so far. The caller may keep
// folding via Write afterwards; the returned pointer always reflects
// the latest state.
func (a *Aggregator) Summary() *agg.Summary {
	return a.sum
}

// WriteSummary writes a summary to w as a single indented JSON
// document, for people to read. The dispersion server's summary endpoint
// answers differently: it wraps the summary in its SummaryResponse, as
// the compact canonical bytes json.Marshal writes. ReadSummary reads
// either rendering of a summary.
func WriteSummary(w io.Writer, s *agg.Summary) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSummary reads back a summary written by WriteSummary, or the
// summary field of the server's summary endpoint.
func ReadSummary(r io.Reader) (*agg.Summary, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	s := new(agg.Summary)
	if err := json.Unmarshal(b, s); err != nil {
		return nil, fmt.Errorf("sink: bad summary JSON: %w", err)
	}
	return s, nil
}
