package benchsuite

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dispersion/server"
)

const sampleDoc = `{
  "defaults": {"samples": 6, "iterations": 400, "quick_iterations": 40, "warmup": 2, "workers": 1, "seed": 7},
  "suites": [
    {"name": "engine",
     "processes": ["sequential", "parallel"],
     "graphs": ["complete:64", "cycle:32"],
     "iterations": 800},
    {"name": "variants",
     "processes": ["capacity"],
     "graphs": ["complete:64"],
     "options": [{}, {"capacity": 3}, {"lazy": true, "particles": 16}],
     "samples": 4}
  ]
}`

func parseSample(t *testing.T) *File {
	t.Helper()
	f, err := Parse([]byte(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestParseStringRoundTrip(t *testing.T) {
	f := parseSample(t)
	rendered := f.String()
	back, err := Parse([]byte(rendered))
	if err != nil {
		t.Fatalf("reparsing String output: %v", err)
	}
	if !reflect.DeepEqual(f, back) {
		t.Errorf("parse → String → parse changed the file:\nfirst:  %+v\nsecond: %+v", f, back)
	}
	// And String is a fixed point: rendering the reparse is identical.
	if again := back.String(); again != rendered {
		t.Errorf("String not canonical:\nfirst:\n%s\nsecond:\n%s", rendered, again)
	}
}

func TestConfigsExpansion(t *testing.T) {
	f := parseSample(t)
	cfgs := f.Configs(false)
	var names []string
	for _, c := range cfgs {
		names = append(names, c.Name)
	}
	want := []string{
		"engine/sequential/complete:64",
		"engine/parallel/complete:64",
		"engine/sequential/cycle:32",
		"engine/parallel/cycle:32",
		"variants/capacity/complete:64",
		"variants/capacity/complete:64/capacity=3",
		"variants/capacity/complete:64/lazy,particles=16",
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("expanded names %v, want %v", names, want)
	}
	// Suite overrides defaults; unset fields inherit.
	c := cfgs[0]
	if c.Iterations != 800 || c.Samples != 6 || c.Warmup != 2 || c.Workers != 1 || c.Seed != 7 {
		t.Errorf("engine budgets: %+v", c)
	}
	v := cfgs[4]
	if v.Samples != 4 || v.Iterations != 400 {
		t.Errorf("variants budgets: %+v", v)
	}
	// The engine job of a cell carries the cell's coordinates.
	job := cfgs[5].Job()
	if job.Process != "capacity" || job.Spec != "complete:64" || job.Trials != 400 || len(job.Options) != 1 {
		t.Errorf("job: %+v", job)
	}
	if err := job.Validate(); err != nil {
		t.Errorf("expanded job does not validate: %v", err)
	}
}

func TestConfigsQuickBudgets(t *testing.T) {
	f := parseSample(t)
	quick := f.Configs(true)
	// The engine suite has no quick_iterations of its own: it inherits
	// the default 40. Same for variants.
	for _, c := range quick {
		if c.Iterations != 40 {
			t.Errorf("%s: quick iterations %d, want 40", c.Name, c.Iterations)
		}
	}
	// With no quick budget anywhere, quick mode falls back to a tenth.
	f2, err := Parse([]byte(`{"suites": [{"name": "s", "processes": ["sequential"], "graphs": ["complete:8"], "iterations": 250}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := f2.Configs(true)[0].Iterations; got != 25 {
		t.Errorf("fallback quick iterations %d, want 25", got)
	}
	// The fallback never reaches zero.
	f3, err := Parse([]byte(`{"suites": [{"name": "s", "processes": ["sequential"], "graphs": ["complete:8"], "iterations": 5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := f3.Configs(true)[0].Iterations; got != 1 {
		t.Errorf("minimum quick iterations %d, want 1", got)
	}
}

func TestParseRejectsUnknownGraph(t *testing.T) {
	_, err := Parse([]byte(`{"suites": [{"name": "s", "processes": ["sequential"], "graphs": ["moebius:9"]}]}`))
	if err == nil {
		t.Fatal("unknown graph family accepted")
	}
	// The graphspec diagnostics (naming the family and the known kinds)
	// must survive the wrapping.
	if !strings.Contains(err.Error(), `unknown graph kind "moebius"`) ||
		!strings.Contains(err.Error(), "complete") {
		t.Errorf("error %q does not carry graphspec.Parse diagnostics", err)
	}
}

func TestParseRejectsUnknownProcess(t *testing.T) {
	_, err := Parse([]byte(`{"suites": [{"name": "s", "processes": ["teleport"], "graphs": ["complete:8"]}]}`))
	if err == nil {
		t.Fatal("unknown process accepted")
	}
	if !strings.Contains(err.Error(), `unknown process "teleport"`) ||
		!strings.Contains(err.Error(), "sequential") {
		t.Errorf("error %q does not carry the registry diagnostics", err)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"unknown field", `{"suites": [{"name": "s", "processes": ["sequential"], "graphs": ["complete:8"], "iteraitons": 5}]}`, "iteraitons"},
		{"no suites", `{"suites": []}`, "no suites"},
		{"unnamed suite", `{"suites": [{"processes": ["sequential"], "graphs": ["complete:8"]}]}`, "no name"},
		{"slash in name", `{"suites": [{"name": "a/b", "processes": ["sequential"], "graphs": ["complete:8"]}]}`, "must not contain"},
		{"duplicate suites", `{"suites": [{"name": "s", "processes": ["sequential"], "graphs": ["complete:8"]}, {"name": "s", "processes": ["sequential"], "graphs": ["complete:8"]}]}`, "duplicate suite"},
		{"no processes", `{"suites": [{"name": "s", "graphs": ["complete:8"]}]}`, "no processes"},
		{"no graphs", `{"suites": [{"name": "s", "processes": ["sequential"]}]}`, "no graphs"},
		{"duplicate cell", `{"suites": [{"name": "s", "processes": ["sequential", "sequential"], "graphs": ["complete:8"]}]}`, "duplicate configuration"},
		{"negative budget", `{"suites": [{"name": "s", "processes": ["sequential"], "graphs": ["complete:8"], "warmup": -1}]}`, "negative budget"},
		{"trailing data", `{"suites": [{"name": "s", "processes": ["sequential"], "graphs": ["complete:8"]}]} {"x": 1}`, "trailing"},
	}
	for _, c := range cases {
		_, err := Parse([]byte(c.doc))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestOptionsLabelDeterministic(t *testing.T) {
	o := server.Options{Lazy: true, Particles: 16, SettleParam: 0.25, Capacity: 3}
	want := "lazy,particles=16,settle-param=0.25,capacity=3"
	if got := OptionsLabel(o); got != want {
		t.Errorf("label %q, want %q", got, want)
	}
	if got := OptionsLabel(server.Options{}); got != "" {
		t.Errorf("zero options label %q, want empty", got)
	}
}

// gridDoc returns a suites file of one suite per entry of axes, each
// crossing that many options, graphs and processes (at most 9).
func gridDoc(axes ...[3]int) []byte {
	procs := []string{`"sequential"`, `"parallel"`, `"uniform"`, `"ct-uniform"`, `"ct-sequential"`,
		`"sequential-geom"`, `"sequential-threshold"`, `"capacity"`, `"capacity-parallel"`}
	var suites []string
	for i, a := range axes {
		var opts, graphs []string
		for k := 1; k <= a[0]; k++ {
			opts = append(opts, fmt.Sprintf(`{"particles":%d}`, k))
		}
		for k := 1; k <= a[1]; k++ {
			graphs = append(graphs, fmt.Sprintf(`"complete:%d"`, k+1))
		}
		suites = append(suites, fmt.Sprintf(`{"name":"s%d","processes":[%s],"graphs":[%s],"options":[%s]}`,
			i, strings.Join(procs[:a[2]], ","), strings.Join(graphs, ","), strings.Join(opts, ",")))
	}
	return []byte(`{"suites":[` + strings.Join(suites, ",") + `]}`)
}

// blowUpDoc is a 9.9 KB suites file whose one suite crosses 300 options,
// 300 graphs and 9 processes: 810,000 configurations.
func blowUpDoc() []byte { return gridDoc([3]int{300, 300, 9}) }

// Parse accepts exactly MaxConfigs configurations and refuses one more,
// and it refuses a grid of 810,000 from its axis lengths, before
// expanding it.
func TestParseBoundsTheGrid(t *testing.T) {
	f, err := Parse(gridDoc([3]int{8, 64, 8}))
	if err != nil {
		t.Fatalf("a grid of %d configurations: %v", MaxConfigs, err)
	}
	if n := len(f.Configs(false)); n != MaxConfigs {
		t.Fatalf("expanded to %d configurations, want %d", n, MaxConfigs)
	}
	for name, doc := range map[string][]byte{
		"one over":  gridDoc([3]int{8, 64, 8}, [3]int{1, 1, 1}),
		"810,000":   blowUpDoc(),
		"one suite": gridDoc([3]int{4097, 1, 1}),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Parse(doc)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "more than 4096 configurations") {
			t.Fatalf("%s: error %v, want the configuration bound", name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
			t.Errorf("%s: Parse allocated %d bytes refusing a %d-byte file", name, alloc, len(doc))
		}
	}
}
