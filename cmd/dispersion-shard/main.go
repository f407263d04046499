// Command dispersion-shard is the fan-out coordinator for trial-range
// sharding: it splits one logical job into K disjoint FirstTrial ranges,
// submits them across one or more dispersion servers, merges the NDJSON
// result streams back into a single in-order result set, and retries or
// resumes dead shards without recomputing delivered trials.
//
// Usage:
//
//	dispersion-server -addr :8080 &
//	dispersion-server -addr :8081 &
//	dispersion-shard -servers http://localhost:8080,http://localhost:8081 \
//	    -shards 8 -graph torus:32x32 -process parallel -trials 1000000 \
//	    -seed 1 -checkpoint run.jsonl
//
// The merged stream is bit-identical to a single contiguous Engine.Run
// (or one unsharded server job) with the same (seed, experiment, spec).
// With -checkpoint, every merged result is logged to a JSONL
// write-ahead file before delivery; killing the coordinator and
// rerunning the same command resumes from the log, computing only the
// missing suffix. The checkpoint is itself the complete result archive
// once the run finishes.
//
// -jsonl additionally writes the merged records to a separate file (or
// "-" for stdout); a summary with the trial count and mean dispersion
// time is always printed.
//
// With -summary FILE the coordinator switches to sketch-merge mode
// (shard.Coordinator.RunSummary): shards run server-side as
// summary_only jobs, only their kilobyte agg.Summary sketches cross
// the network, and the merged summary — byte-identical to a contiguous
// run's — is written to FILE ("-" = stdout). Per-trial output (-jsonl)
// is unavailable in this mode; -checkpoint logs completed shard
// summaries instead of results, and resuming recomputes only the
// missing shards.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"dispersion"
	"dispersion/server"
	"dispersion/shard"
	"dispersion/sink"
)

func main() {
	var (
		servers    = flag.String("servers", "", "comma-separated dispersion-server base URLs (required)")
		shards     = flag.Int("shards", 0, "number of trial-range shards K (0 = one per server)")
		checkpoint = flag.String("checkpoint", "", "JSONL write-ahead result log; rerunning resumes from it")
		retries    = flag.Int("retries", 0, "consecutive no-progress attempts before a shard gives up (0 = 5)")

		process = flag.String("process", "seq",
			"process: seq|par|unif|ctu|ctseq|geom|thresh|cap|cap-par (or a lazy- prefix)")
		graphSpec  = flag.String("graph", "complete:128", "graph family spec (see dispersion/graphspec)")
		origin     = flag.Int("origin", 0, "origin vertex")
		trials     = flag.Int("trials", 1000, "number of independent trials")
		firstTrial = flag.Int("first-trial", 0, "first trial index of the logical range")
		seed       = flag.Uint64("seed", 1, "random seed (reproducible)")
		experiment = flag.Uint64("experiment", 0, "experiment stream namespace")

		lazy           = flag.Bool("lazy", false, "use lazy random walks")
		record         = flag.Bool("record", false, "keep full trajectories in every result")
		particles      = flag.Int("particles", 0, "disperse k particles instead of one per vertex (0 = default)")
		randomOrigins  = flag.Bool("random-origins", false, "sample each particle's origin uniformly")
		maxSteps       = flag.Int64("max-steps", 0, "truncate runs past this many total steps (0 = unbounded)")
		randomPriority = flag.Bool("random-priority", false, "random priority permutation for parallel conflicts")
		settleParam    = flag.Float64("settle-param", 0,
			"settle-rule parameter: geom's settle probability, thresh's minimum steps (0 = process default)")
		capacity = flag.Int("capacity", 0, "per-vertex capacity of the capacity processes (0 = default 2)")

		jsonlPath   = flag.String("jsonl", "", `write merged per-trial records as JSONL to this file ("-" = stdout)`)
		summaryPath = flag.String("summary", "", `sketch-merge mode: write the merged agg.Summary JSON to this file ("-" = stdout)`)
	)
	flag.Parse()

	if *servers == "" {
		fatal(fmt.Errorf("-servers is required (comma-separated base URLs)"))
	}
	if *summaryPath != "" && *jsonlPath != "" {
		fatal(fmt.Errorf("-summary runs summary_only jobs that keep no per-trial results; drop -jsonl"))
	}
	var urls []string
	for _, u := range strings.Split(*servers, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}

	// The registry accepts aliases like "par"; submit the canonical name.
	p, err := dispersion.Lookup(*process)
	if err != nil {
		fatal(err)
	}
	req := server.JobRequest{
		Process:    p.Name(),
		Spec:       *graphSpec,
		Origin:     *origin,
		Trials:     *trials,
		FirstTrial: *firstTrial,
		Seed:       *seed,
		Experiment: *experiment,
		Options: server.Options{
			Lazy:           *lazy,
			Record:         *record,
			Particles:      *particles,
			RandomOrigins:  *randomOrigins,
			MaxSteps:       *maxSteps,
			RandomPriority: *randomPriority,
			SettleParam:    *settleParam,
			Capacity:       *capacity,
		},
	}

	var out sink.Writer
	var outFile *os.File
	if *jsonlPath != "" {
		var w io.Writer = os.Stdout
		if *jsonlPath != "-" {
			f, err := os.Create(*jsonlPath)
			if err != nil {
				fatal(err)
			}
			outFile = f
			w = f
		}
		out = sink.NewJSONL(w)
	}

	coord := &shard.Coordinator{
		Servers:    urls,
		Shards:     *shards,
		Checkpoint: *checkpoint,
		Retries:    *retries,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *summaryPath != "" {
		runSummaryMode(ctx, coord, req, *summaryPath, len(urls))
		return
	}

	var sum float64
	n := 0
	err = coord.Run(ctx, req, func(t dispersion.Trial) error {
		if out != nil {
			if err := out.Write(t); err != nil {
				return err
			}
		}
		sum += t.Result.Makespan()
		n++
		return nil
	})
	// Close the output before claiming success: a close-time write
	// failure means the file may be truncated, and the summary must not
	// report a complete run over it.
	if outFile != nil {
		if cerr := outFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		if *checkpoint != "" {
			fmt.Fprintf(os.Stderr, "dispersion-shard: %d trials are durable in %s; rerun to resume\n", n, *checkpoint)
		}
		fatal(err)
	}
	fmt.Printf("%s on %s: %d trials [%d,%d) over %d servers, mean makespan %.6g\n",
		req.Process, req.Spec, n, req.FirstTrial, req.FirstTrial+req.Trials,
		len(urls), sum/float64(n))
}

// runSummaryMode executes the sketch-merge path: merge per-shard
// summaries and write the combined summary JSON.
func runSummaryMode(ctx context.Context, coord *shard.Coordinator, req server.JobRequest, path string, servers int) {
	sum, err := coord.RunSummary(ctx, req)
	if err != nil {
		if coord.Checkpoint != "" {
			fmt.Fprintf(os.Stderr, "dispersion-shard: completed shard summaries are durable in %s; rerun to resume\n", coord.Checkpoint)
		}
		fatal(err)
	}
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		out = f
	}
	if err := sink.WriteSummary(out, sum); err != nil {
		fatal(err)
	}
	// Close the file before claiming success: a close-time write failure
	// means the summary on disk may be truncated.
	if out != os.Stdout {
		if err := out.Close(); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "%s on %s: %d trials [%d,%d) over %d servers, mean makespan %.6g\n",
		req.Process, req.Spec, sum.Trials, req.FirstTrial, req.FirstTrial+req.Trials,
		servers, sum.Makespan.Moments.Mean())
}

// fatal prints the error and exits non-zero.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dispersion-shard:", err)
	os.Exit(1)
}
