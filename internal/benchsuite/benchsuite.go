// Package benchsuite defines the declarative benchmark-suite files the
// benchmark lab (cmd/benchlab) and the repository benchmark harness
// (bench_test.go) both consume, in the spirit of bent's suites.toml:
// suites are data, not code. A file declares a grid of configurations —
// graph family × process × options — plus per-suite measurement budgets
// (sample count, iteration count, warmup), and every tool that measures
// "how fast is a trial" expands the same committed file into the same
// configuration list.
//
// The format is JSON (the repository's one serialization format: jobs,
// results, sketches and perf artifacts are all JSON already):
//
//	{
//	  "defaults": {"samples": 10, "iterations": 2000, "quick_iterations": 200,
//	               "warmup": 2, "workers": 1, "seed": 1},
//	  "suites": [
//	    {"name": "engine",
//	     "processes": ["sequential", "parallel"],
//	     "graphs": ["complete:512"],
//	     "options": [{}, {"lazy": true}],
//	     "iterations": 3000}
//	  ]
//	}
//
// Every suite crosses its graphs, processes and options entries into one
// configuration per cell, named "suite/process/graph" (plus a
// deterministic option label when the options entry is non-zero). Graph
// specs are validated with graphspec.Parse, process names against the
// dispersion registry, and options reuse the server's JSON schema
// (server.Options), so a suites file cannot name anything the engine
// would reject at run time.
package benchsuite

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dispersion"
	"dispersion/graphspec"
	"dispersion/server"
)

// Params are the measurement budgets a file's defaults section and each
// suite may set; zero fields inherit (suite from defaults, defaults from
// the package fallbacks).
type Params struct {
	// Samples is the number of repeated timed measurements per
	// configuration; confidence intervals are computed across them.
	Samples int `json:"samples,omitempty"`
	// Iterations is the number of engine trials per sample.
	Iterations int `json:"iterations,omitempty"`
	// QuickIterations is the reduced per-sample trial budget used when
	// the lab runs in quick mode (CI); zero falls back to
	// max(Iterations/10, 1).
	QuickIterations int `json:"quick_iterations,omitempty"`
	// Warmup is the number of untimed samples run first.
	Warmup int `json:"warmup,omitempty"`
	// Workers is the engine worker count (0 lets the suite/defaults
	// decide; the final fallback is 1, the stable single-threaded
	// timing mode).
	Workers int `json:"workers,omitempty"`
	// Seed roots the engine randomness of every sample, so each sample
	// times the identical trial set and the spread across samples is
	// machine noise, not workload variation.
	Seed uint64 `json:"seed,omitempty"`
}

// merge overlays p over base, field by field.
func (p Params) merge(base Params) Params {
	if p.Samples == 0 {
		p.Samples = base.Samples
	}
	if p.Iterations == 0 {
		p.Iterations = base.Iterations
	}
	if p.QuickIterations == 0 {
		p.QuickIterations = base.QuickIterations
	}
	if p.Warmup == 0 {
		p.Warmup = base.Warmup
	}
	if p.Workers == 0 {
		p.Workers = base.Workers
	}
	if p.Seed == 0 {
		p.Seed = base.Seed
	}
	return p
}

// fallback is the bottom of the Params inheritance chain.
var fallback = Params{Samples: 10, Iterations: 1000, Warmup: 1, Workers: 1, Seed: 1}

// Suite is one declared grid: every graph × process × options cell
// becomes a configuration.
type Suite struct {
	// Name labels the suite; it prefixes every configuration name.
	Name string `json:"name"`
	// Processes lists registry names (canonical or alias) to measure.
	Processes []string `json:"processes"`
	// Graphs lists graphspec strings to measure on.
	Graphs []string `json:"graphs"`
	// Options is the third grid axis: each entry configures one
	// variant of every process × graph cell. Empty means one
	// default-options variant.
	Options []server.Options `json:"options,omitempty"`
	// Params override the file defaults for this suite.
	Params
}

// File is a parsed suites file.
type File struct {
	// Defaults seed the Params of every suite.
	Defaults Params `json:"defaults,omitempty"`
	// Suites holds the declared grids, in file order.
	Suites []Suite `json:"suites"`
}

// Config is one expanded cell of a suite's grid together with its
// effective measurement budgets — everything a driver needs to measure
// it.
type Config struct {
	// Name identifies the configuration across runs and reports:
	// "suite/process/graph" plus an option label when options are set.
	Name string `json:"name"`
	// Suite is the declaring suite's name.
	Suite string `json:"suite"`
	// Process is the registry name to run.
	Process string `json:"process"`
	// Graph is the graphspec to build.
	Graph string `json:"graph"`
	// Options configure every trial (server JSON schema).
	Options server.Options `json:"options,omitempty"`
	// Samples, Iterations, Warmup, Workers and Seed are the effective
	// budgets after defaults/suite/quick resolution; Iterations is
	// already the quick budget when the file was expanded in quick
	// mode.
	Samples    int    `json:"samples"`
	Iterations int    `json:"iterations"`
	Warmup     int    `json:"warmup"`
	Workers    int    `json:"workers"`
	Seed       uint64 `json:"seed"`
}

// Job renders the configuration as the engine job that one sample runs.
func (c Config) Job() dispersion.Job {
	return dispersion.Job{
		Process: c.Process,
		Spec:    c.Graph,
		Trials:  c.Iterations,
		Options: c.Options.Build(),
	}
}

// MaxConfigs bounds the configurations one suites file may expand to.
// Each suite's grid is a product of its axes, so a few kilobytes of JSON
// could otherwise declare millions of cells; Parse rejects a larger file
// from the axis lengths alone, before it expands anything. The committed
// benchsuites.json expands to 30.
const MaxConfigs = 4096

// Parse decodes and validates a suites file. Unknown JSON fields are
// rejected (a typo in a budget name must not silently measure the wrong
// thing), as are unknown graph families (with graphspec.Parse's
// diagnostics), unregistered processes, empty grids, grids of more than
// MaxConfigs configurations in all, and suites or expanded configurations
// whose names collide.
func Parse(data []byte) (*File, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f File
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("benchsuite: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("benchsuite: trailing data after the suites document")
	}
	// An empty JSON array decodes to an empty slice, which String omits;
	// keep such slices nil so Parse(String(f)) reproduces f.
	for i := range f.Suites {
		s := &f.Suites[i]
		if len(s.Options) == 0 {
			s.Options = nil
		}
		for j := range s.Options {
			if len(s.Options[j].Capacities) == 0 {
				s.Options[j].Capacities = nil
			}
		}
	}
	if err := f.validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// Load reads and parses the suites file at path.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// validate checks the whole file, including that the expanded grid is
// well-formed and collision-free.
func (f *File) validate() error {
	if len(f.Suites) == 0 {
		return fmt.Errorf("benchsuite: file declares no suites")
	}
	suiteNames := map[string]bool{}
	cells := 0
	for i := range f.Suites {
		s := &f.Suites[i]
		if s.Name == "" {
			return fmt.Errorf("benchsuite: suite %d has no name", i)
		}
		if strings.Contains(s.Name, "/") {
			return fmt.Errorf("benchsuite: suite %q: name must not contain %q", s.Name, "/")
		}
		if suiteNames[s.Name] {
			return fmt.Errorf("benchsuite: duplicate suite name %q", s.Name)
		}
		suiteNames[s.Name] = true
		if len(s.Processes) == 0 {
			return fmt.Errorf("benchsuite: suite %q lists no processes", s.Name)
		}
		if len(s.Graphs) == 0 {
			return fmt.Errorf("benchsuite: suite %q lists no graphs", s.Name)
		}
		if cells = min(cells+s.cells(), MaxConfigs+1); cells > MaxConfigs {
			return fmt.Errorf("benchsuite: the suites expand to more than %d configurations", MaxConfigs)
		}
		for _, p := range s.Processes {
			if _, err := dispersion.Lookup(p); err != nil {
				return fmt.Errorf("benchsuite: suite %q: %w", s.Name, err)
			}
		}
		for _, g := range s.Graphs {
			if _, err := graphspec.Parse(g); err != nil {
				return fmt.Errorf("benchsuite: suite %q: %w", s.Name, err)
			}
		}
		for _, ps := range []Params{s.Params, f.Defaults} {
			if ps.Samples < 0 || ps.Iterations < 0 || ps.QuickIterations < 0 ||
				ps.Warmup < 0 || ps.Workers < 0 {
				return fmt.Errorf("benchsuite: suite %q: negative budget", s.Name)
			}
		}
	}
	// Expanding cannot fail past this point; check the cell names are
	// unique (two identical grid cells would silently shadow each other
	// in reports and gates).
	seen := map[string]bool{}
	for _, c := range f.Configs(false) {
		if seen[c.Name] {
			return fmt.Errorf("benchsuite: duplicate configuration %q", c.Name)
		}
		seen[c.Name] = true
	}
	return nil
}

// cells returns the number of configurations s expands to, saturating at
// MaxConfigs+1 so the product of its axis lengths cannot overflow.
func (s *Suite) cells() int {
	n := 1
	for _, k := range []int{max(len(s.Options), 1), len(s.Graphs), len(s.Processes)} {
		n = min(n*min(k, MaxConfigs+1), MaxConfigs+1)
	}
	return n
}

// Configs expands every suite's grid into its configurations, in file
// order (suites in declaration order; within a suite, options × graphs ×
// processes with processes fastest). quick swaps each configuration's
// iteration budget for its quick budget.
func (f *File) Configs(quick bool) []Config {
	var out []Config
	for _, s := range f.Suites {
		eff := s.Params.merge(f.Defaults).merge(fallback)
		iters := eff.Iterations
		if quick {
			iters = eff.QuickIterations
			if iters == 0 {
				iters = max(eff.Iterations/10, 1)
			}
		}
		optionSets := s.Options
		if len(optionSets) == 0 {
			optionSets = []server.Options{{}}
		}
		for _, opt := range optionSets {
			for _, g := range s.Graphs {
				for _, p := range s.Processes {
					name := s.Name + "/" + p + "/" + g
					if label := OptionsLabel(opt); label != "" {
						name += "/" + label
					}
					out = append(out, Config{
						Name:       name,
						Suite:      s.Name,
						Process:    p,
						Graph:      g,
						Options:    opt,
						Samples:    eff.Samples,
						Iterations: iters,
						Warmup:     eff.Warmup,
						Workers:    eff.Workers,
						Seed:       eff.Seed,
					})
				}
			}
		}
	}
	return out
}

// OptionsLabel renders a deterministic short label for an options entry
// ("" for the zero value), used to keep configuration names unique
// across a suite's options axis, e.g. "lazy,particles=128".
func OptionsLabel(o server.Options) string {
	var parts []string
	if o.Lazy {
		parts = append(parts, "lazy")
	}
	if o.Record {
		parts = append(parts, "record")
	}
	if o.Particles > 0 {
		parts = append(parts, fmt.Sprintf("particles=%d", o.Particles))
	}
	if o.RandomOrigins {
		parts = append(parts, "random-origins")
	}
	if o.MaxSteps > 0 {
		parts = append(parts, fmt.Sprintf("max-steps=%d", o.MaxSteps))
	}
	if o.RandomPriority {
		parts = append(parts, "random-priority")
	}
	if o.SettleParam != 0 {
		parts = append(parts, fmt.Sprintf("settle-param=%g", o.SettleParam))
	}
	if o.Capacity != 0 {
		parts = append(parts, fmt.Sprintf("capacity=%d", o.Capacity))
	}
	if len(o.Capacities) > 0 {
		caps := make([]string, len(o.Capacities))
		for i, c := range o.Capacities {
			caps[i] = strconv.Itoa(c)
		}
		parts = append(parts, "caps="+strings.Join(caps, "-"))
	}
	if o.Batch != 0 {
		parts = append(parts, fmt.Sprintf("batch=%d", o.Batch))
	}
	return strings.Join(parts, ",")
}

// String renders the file back to its canonical indented-JSON form.
// Parse(String(f)) reproduces f exactly — the round-trip identity that
// keeps committed suites files rewritable by tools.
func (f *File) String() string {
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		// File holds only plain data types; MarshalIndent cannot fail.
		panic(err)
	}
	return string(out) + "\n"
}
