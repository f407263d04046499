// Package sink persists per-trial dispersion results as they stream out
// of an Engine.Run callback, so experiments at scale do not re-implement
// collection.
//
// Two formats are provided, both written one record per trial in strict
// trial order:
//
//   - JSONL ("NDJSON"): one Record — the trial index plus the full
//     dispersion.Result — as a JSON object per line. This is the lossless
//     format; it is also the wire schema the dispersion HTTP server
//     streams from GET /v1/jobs/{id}/results.
//   - CSV: one Row of scalar per-trial summaries (makespan, dispersion,
//     total steps, ...) per line, for spreadsheets and plotting. Slices
//     (per-particle steps, trajectories) are not representable in CSV and
//     are dropped.
//
// A third sink keeps nothing per trial: Aggregator folds each Result
// into a mergeable agg.Summary (moments, quantile sketch, makespan
// histogram), so arbitrarily long runs retain kilobytes. WriteSummary
// and ReadSummary persist summaries as JSON.
//
// All three sinks serialize or fold a trial during Write and keep no
// reference to its Result, so all are safe under Engine.ReuseResults,
// which recycles a Result once the callback returns.
//
// Writers implement the one-method Writer interface; Tee fans a single
// Engine.Run callback out to any number of them:
//
//	cw := sink.NewCSV(f)
//	err := eng.Run(ctx, job, sink.Tee(cw))
//	// ...
//	cw.Flush()
//
// ReadJSONL and ReadCSV read files back for verification and resumption;
// a JSONL round trip reproduces the in-memory results exactly.
//
// One codec reads and writes every JSONL line: AppendRecord writes the
// exact bytes encoding/json writes for a Record, and Record.UnmarshalJSON
// parses that layout without reflection, handing any other input to
// encoding/json. The line format is therefore byte-stable, and every
// line encoding/json accepts decodes as it always did. The codec's
// primitives, a parser of one fixed layout and encoding/json's number
// formatting, live in an internal package shared with agg's summary
// codec. The parser reads each integer array (Steps, SettledAt,
// SettleOrder, SettleClock and each trajectory) in one loop.
package sink
