package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"dispersion/internal/benchsuite"
	"dispersion/internal/stats"
)

// Schema identifies the benchlab report document format; gate refuses
// files that do not carry it, so a benchjson artifact (the old 1x-sweep
// format) cannot be gated by accident.
const Schema = "dispersion-benchlab/1"

// ciLevel is the confidence level of every interval the lab reports.
const ciLevel = 0.95

// Report is one lab run's output document: the machine context plus one
// ConfigResult per measured configuration, in suite order. It is the
// unit the gate compares and the trajectory file accumulates.
type Report struct {
	// Schema is always the Schema constant.
	Schema string `json:"schema"`
	// When is the run's RFC3339 start time.
	When string `json:"when,omitempty"`
	// Goos, Goarch, CPUs and GoVersion describe the machine; the gate
	// warns when they differ between the two reports, since
	// cross-machine medians are not comparable.
	Goos   string `json:"goos"`
	Goarch string `json:"goarch"`
	// CPUs is runtime.NumCPU at run time.
	CPUs int `json:"cpus"`
	// GoVersion is runtime.Version at run time.
	GoVersion string `json:"go"`
	// Quick records that the run used the reduced quick budgets.
	Quick bool `json:"quick,omitempty"`
	// Configs holds one entry per measured configuration.
	Configs []ConfigResult `json:"configs"`
}

// ConfigResult is one configuration's measurements: its identity and
// budgets (the expanded benchsuite cell) plus per-metric statistics.
type ConfigResult struct {
	benchsuite.Config
	// BuildMS is the wall time of the configuration's one graph build,
	// which no sample includes.
	BuildMS float64 `json:"build_ms"`
	// Metrics maps metric name (ns/op, trials/sec, allocs/op) to its
	// per-sample values and summary statistics.
	Metrics map[string]Metric `json:"metrics"`
}

// Metric is one metric's repeated measurements across a configuration's
// samples, with the summary statistics the lab reports: mean with its
// Student-t confidence interval and median with its distribution-free
// order-statistic interval.
type Metric struct {
	// Samples holds the raw per-sample values, in measurement order —
	// the gate's input.
	Samples []float64 `json:"samples"`
	// Mean and Median locate the metric.
	Mean   float64 `json:"mean"`
	Median float64 `json:"median"`
	// MeanCI is the t-based confidence interval for the mean at Level.
	MeanCI [2]float64 `json:"mean_ci"`
	// MedianCI is the order-statistic interval for the median;
	// MedianLevel is its achieved coverage (see stats.MedianCI).
	MedianCI    [2]float64 `json:"median_ci"`
	MedianLevel float64    `json:"median_level"`
	// Level is the requested confidence level of MeanCI.
	Level float64 `json:"level"`
}

// newMetric summarizes one metric's samples.
func newMetric(samples []float64) (Metric, error) {
	mean, err := stats.MeanCI(samples, ciLevel)
	if err != nil {
		return Metric{}, err
	}
	med, err := stats.MedianCI(samples, ciLevel)
	if err != nil {
		return Metric{}, err
	}
	return Metric{
		Samples:     samples,
		Mean:        stats.Summarize(samples).Mean,
		Median:      stats.Summarize(samples).Median,
		MeanCI:      [2]float64{mean.Lo, mean.Hi},
		MedianCI:    [2]float64{med.Lo, med.Hi},
		MedianLevel: med.Level,
		Level:       ciLevel,
	}, nil
}

// newReport stamps an empty report with the machine context.
func newReport(quick bool) *Report {
	return &Report{
		Schema:    Schema,
		When:      time.Now().UTC().Format(time.RFC3339),
		Goos:      runtime.GOOS,
		Goarch:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		GoVersion: runtime.Version(),
		Quick:     quick,
	}
}

// writeReport writes the report as indented JSON to path.
func writeReport(path string, rep *Report) error {
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// loadReport reads a benchlab report, rejecting documents without the
// benchlab schema marker.
func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != Schema {
		return nil, fmt.Errorf("%s: schema %q is not a benchlab report (want %q)", path, rep.Schema, Schema)
	}
	return &rep, nil
}

// trajectoryPoint is one line of the append-only perf-trajectory file:
// a condensed view of one run (median and median CI per configuration),
// ordered as the run was.
type trajectoryPoint struct {
	// When is the run's RFC3339 start time; lines append in run order,
	// so the file reads as a time series.
	When string `json:"when"`
	// Quick marks reduced-budget (CI) points, which are noisier than
	// full lab runs.
	Quick bool `json:"quick,omitempty"`
	// Goos, Goarch, CPUs, GoVersion describe the machine the point was
	// measured on; points from different machines are separate series.
	Goos      string `json:"goos"`
	Goarch    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	GoVersion string `json:"go"`
	// Configs condenses each configuration to its headline numbers.
	Configs []trajectoryConfig `json:"configs"`
}

// trajectoryConfig is one configuration's condensed entry in a
// trajectory point.
type trajectoryConfig struct {
	// Name is the configuration name (benchsuite.Config.Name).
	Name string `json:"name"`
	// NsPerOp is the median ns per trial; NsPerOpCI its order-statistic
	// confidence interval.
	NsPerOp   float64    `json:"ns_per_op"`
	NsPerOpCI [2]float64 `json:"ns_per_op_ci"`
	// TrialsPerSec is the median throughput.
	TrialsPerSec float64 `json:"trials_per_sec"`
	// AllocsPerOp is the median allocation count per trial.
	AllocsPerOp float64 `json:"allocs_per_op"`
	// BuildMS is the graph build time. Points without it are of the
	// earlier series, whose ns/op also paid a graph build per sample.
	BuildMS float64 `json:"build_ms,omitempty"`
}

// appendTrajectory appends the run's condensed point as one JSON line to
// the trajectory file, creating it if needed. Appending — never
// rewriting — preserves the order of every earlier point.
func appendTrajectory(path string, rep *Report) error {
	pt := trajectoryPoint{
		When:      rep.When,
		Quick:     rep.Quick,
		Goos:      rep.Goos,
		Goarch:    rep.Goarch,
		CPUs:      rep.CPUs,
		GoVersion: rep.GoVersion,
	}
	for _, c := range rep.Configs {
		ns := c.Metrics["ns/op"]
		pt.Configs = append(pt.Configs, trajectoryConfig{
			Name:         c.Name,
			NsPerOp:      ns.Median,
			NsPerOpCI:    ns.MedianCI,
			TrialsPerSec: c.Metrics["trials/sec"].Median,
			AllocsPerOp:  c.Metrics["allocs/op"].Median,
			BuildMS:      c.BuildMS,
		})
	}
	line, err := json.Marshal(pt)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printResult renders one configuration's headline numbers as a table
// row: median ns/op with its CI halfwidth, median throughput, median
// allocations.
func printResult(w io.Writer, c ConfigResult) {
	ns := c.Metrics["ns/op"]
	half := (ns.MedianCI[1] - ns.MedianCI[0]) / 2
	fmt.Fprintf(w, "%-52s %12.0f ±%-10.0f %12.0f %10.2f\n",
		c.Name, ns.Median, half,
		c.Metrics["trials/sec"].Median, c.Metrics["allocs/op"].Median)
}

// printHeader renders the column header matching printResult.
func printHeader(w io.Writer) {
	fmt.Fprintf(w, "%-52s %12s %-11s %12s %10s\n",
		"config", "ns/op", " (±CI)", "trials/sec", "allocs/op")
}
