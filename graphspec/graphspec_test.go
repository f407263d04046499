package graphspec

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dispersion/internal/graph"
)

func TestBuildValid(t *testing.T) {
	cases := []struct {
		spec  string
		wantN int
	}{
		{"path:10", 10},
		{"cycle:12", 12},
		{"complete:8", 8},
		{"star:9", 9},
		{"hypercube:4", 16},
		{"bintree:4", 15},
		{"lollipop:10", 10},
		{"hair:9", 9},
		{"pimple:12,4", 12},
		{"treepath:3,4", 11},
		{"grid:3x4", 12},
		{"torus:4x4x4", 64},
		{"regular:16,3", 16},
		{"gnp:30,0.4", 30},
		{"tree:25", 25},
		{"circulant:20,1,3", 20},
		{"rregular:24,4", 24},
		{"wcomplete:8,0.5", 8},
		{"wcomplete:6,-1", 6},
		{"wcycle:12,3", 12},
	}
	for _, c := range cases {
		g, err := Build(c.spec, 1)
		if err != nil {
			t.Errorf("%s: %v", c.spec, err)
			continue
		}
		if g.N() != c.wantN {
			t.Errorf("%s: N = %d, want %d", c.spec, g.N(), c.wantN)
		}
		if !g.IsConnected() {
			t.Errorf("%s: disconnected", c.spec)
		}
	}
}

func TestBuildDeterministicRandomFamilies(t *testing.T) {
	a, err := Build("regular:32,3", 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build("regular:32,3", 7)
	if err != nil {
		t.Fatal(err)
	}
	ac, err := graph.Materialize(a)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := graph.Materialize(b)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < ac.N(); v++ {
		if !reflect.DeepEqual(ac.Neighbors(v), bc.Neighbors(v)) {
			t.Fatal("same seed, different graphs")
		}
	}
}

func TestBuildInvalid(t *testing.T) {
	for _, spec := range []string{
		"", "nosep", "unknown:5", "path:abc", "pimple:5", "gnp:10",
		"gnp:10,notafloat", "grid:3xq", "regular:7,3", // odd n*d
		"circulant:12", "circulant:8,0", "circulant:8,5", // offset > n/2
		"circulant:12,3,6,3",                            // repeated offset
		"rregular:16", "rregular:16,3", "rregular:16,0", // odd / zero degree
		"wcomplete:8", "wcomplete:8,x", "wcomplete:1,1", "wcomplete:8,nan",
		"wcycle:2,1", "wcycle:5,-1", "wcycle:5,0", "wcycle:5,+Inf",
	} {
		if _, err := Build(spec, 1); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

// Every family rejects arguments outside its constructor's preconditions
// with an error, never a panic: a server builds specs from requests on a
// job goroutine, where a panic would end the whole process.
func TestBuildOutOfRange(t *testing.T) {
	bad := map[string][]string{
		"path":      {"path:0", "path:-3", "path:3000000000"},
		"cycle":     {"cycle:2", "cycle:-1"},
		"complete":  {"complete:0"},
		"star":      {"star:0"},
		"hypercube": {"hypercube:0", "hypercube:31"},
		"bintree":   {"bintree:0", "bintree:31"},
		"lollipop":  {"lollipop:3"},
		"hair":      {"hair:2"},
		"pimple":    {"pimple:4,2", "pimple:12,1", "pimple:12,11"},
		"treepath":  {"treepath:0,4", "treepath:3,0", "treepath:31,1"},
		"tree":      {"tree:0"},
		"grid":      {"grid:3x0", "grid:65536x65536"},
		// 65536x65536 overflows int32: it must not fall back to a CSR
		// grid that enumerates every vertex.
		"torus":     {"torus:4x2", "torus:0x4", "torus:65536x65536"},
		"circulant": {"circulant:2,1", "circulant:3000000000,1"},
		"rregular":  {"rregular:2,2", "rregular:3000000000,2"},
		"regular":   {"regular:0,1", "regular:2147483647,2"},
		"gnp":       {"gnp:0,0.5", "gnp:10,NaN"},
		"wcomplete": {"wcomplete:1,1"},
		"wcycle":    {"wcycle:2,1"},
	}
	for _, kind := range Kinds() {
		if len(bad[kind]) == 0 {
			t.Errorf("no out-of-range spec for family %q", kind)
		}
	}
	for _, specs := range bad {
		for _, spec := range specs {
			if g, err := Build(spec, 1); err == nil {
				t.Errorf("spec %q built %s", spec, g.Name())
			}
		}
	}
}

// Cost's figures, worked out by hand from each backend's layout: 4-byte
// offsets and adjacency entries, 12 more bytes per weighted adjacency
// slot (an alias probability and vertex; the weights are not kept),
// 16-byte torus move-table entries and dimension records.
func TestCost(t *testing.T) {
	for _, c := range []struct {
		spec string
		want Cost
	}{
		{"path:1", Cost{1, 0, 8}},
		{"complete:256", Cost{256, 256 * 255 / 2, 0}},
		{"cycle:1000", Cost{1000, 1000, 0}},
		{"hypercube:9", Cost{512, 9 * 256, 4*513 + 8*9*256}},
		{"hypercube:16", Cost{1 << 16, 16 << 15, 0}},
		{"grid:3x4", Cost{12, 2*4 + 3*3, 4*13 + 8*17}},
		{"torus:8x8x8", Cost{512, 3 * 512, 3*16 + 27*6*16}},
		{"torus:1x7", Cost{7, 7, 0}},
		{"circulant:12,1,6", Cost{12, 12 * 3 / 2, 2 * 4}},
		{"lollipop:9", Cost{9, 10 + 4, 4*10 + 8*14}},
		{"pimple:12,4", Cost{12, 45 + 4, 4*13 + 8*49}},
		{"treepath:3,4", Cost{11, 10, 4*12 + 8*10}},
		{"regular:16,3", Cost{16, 24, 4*17 + 8*24}},
		{"tree:25", Cost{25, 24, 4*26 + 8*24}},
		{"gnp:30,0.4", Cost{30, 174, 4*31 + 8*174}},
		{"gnp:100,0.001", Cost{100, 99, 4*101 + 8*99}},
		{"wcomplete:512,1", Cost{512, 130816, 4*513 + 32*130816}},
		{"wcycle:12,3", Cost{12, 12, 4*13 + 32*12}},
	} {
		got, err := mustParse(t, c.spec).Cost()
		if err != nil {
			t.Errorf("%s: %v", c.spec, err)
		} else if got != c.want {
			t.Errorf("Cost(%s) = %+v, want %+v", c.spec, got, c.want)
		}
	}
}

// Specs far too large to build are priced without allocating for them,
// and a Build of one fails before allocating too.
func TestCostOfUnbuildableSpecs(t *testing.T) {
	for _, spec := range []string{
		"grid:40000x40000", "bintree:30", "hair:100000",
		"regular:40000000,50", "wcomplete:100000,1", "hair:2147483647",
	} {
		s := mustParse(t, spec)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := s.Cost()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("Cost(%s): %v", spec, err)
		}
		if c.Bytes < 1<<30 {
			t.Errorf("Cost(%s).Bytes = %d, want over 1 GiB", spec, c.Bytes)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > 1<<16 {
			t.Errorf("Cost(%s) allocated %d bytes", spec, d)
		}
		if 2*c.Edges > maxVertices {
			if _, err := s.Build(1); err == nil || !strings.Contains(err.Error(), "adjacency entries") {
				t.Errorf("Build(%s) = %v, want the adjacency-entries error", spec, err)
			}
		}
	}
	if c, _ := mustParse(t, "hair:2147483647").Cost(); c.Bytes != math.MaxInt64 {
		t.Errorf("hair:2147483647 costs %d bytes, want the saturated %d", c.Bytes, int64(math.MaxInt64))
	}
}

// Spellings of one argument list share one Canonical spec; specs whose
// arguments do not parse have none.
func TestCanonical(t *testing.T) {
	for spec, want := range map[string]string{
		"complete:8": "complete:8", "complete:08": "complete:8", "complete:+8": "complete:8",
		"complete: 8 ": "complete:8", "torus: 8 x08x+8": "torus:8x8x8", "grid:-0x3": "",
		"circulant:12,01,-3": "circulant:12,1,-3", "regular:016, 3": "regular:16,3",
		"gnp:64, 0.50": "gnp:64,0.5", "gnp:64,5e-1": "gnp:64,0.5",
		"wcomplete:8,1.0": "wcomplete:8,1", "wcomplete:8,0x1p-2": "wcomplete:8,0.25",
		"wcomplete:8,-0x1p-2": "wcomplete:8,-0.25", "wcomplete:8,-0": "wcomplete:8,-0",
		"wcycle:9, 3":  "wcycle:9,3",
		"complete:3.0": "", "cycle:2": "", "gnp:8,2": "", "wcycle:9,3,1": "",
	} {
		c, err := mustParse(t, spec).Canonical()
		switch {
		case want == "" && err == nil:
			t.Errorf("Canonical(%q) = %q, want an argument error", spec, c)
		case want != "" && err != nil:
			t.Errorf("Canonical(%q): %v", spec, err)
		case want != "" && c.String() != want:
			t.Errorf("Canonical(%q) = %q, want %q", spec, c, want)
		}
	}
}

// mustParse parses spec or fails the test.
func mustParse(t *testing.T, spec string) Spec {
	t.Helper()
	s, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParse(t *testing.T) {
	s, err := Parse("torus:16x16")
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind != "torus" || s.Args != "16x16" {
		t.Errorf("Parse = %+v", s)
	}
	if s.String() != "torus:16x16" {
		t.Errorf("String() = %q", s.String())
	}
	if s.Random() {
		t.Error("torus reported as random family")
	}
	if _, err := Parse("bogus:1"); err == nil {
		t.Error("unknown kind accepted at parse time")
	}
	if _, err := Parse("noseparator"); err == nil {
		t.Error("separator-free spec accepted")
	}
}

func TestRandomFamilies(t *testing.T) {
	for spec, want := range map[string]bool{
		"regular:16,3": true, "gnp:10,0.5": true, "tree:12": true,
		"rregular:16,4": true,
		"complete:8":    false, "grid:3x3": false, "circulant:8,1": false,
		"wcomplete:8,1": false, "wcycle:8,2": false,
	} {
		s, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		if s.Random() != want {
			t.Errorf("%s: Random() = %v, want %v", spec, s.Random(), want)
		}
	}
}

func TestKinds(t *testing.T) {
	kinds := Kinds()
	if len(kinds) != len(families) {
		t.Fatalf("Kinds() has %d entries, want %d", len(kinds), len(families))
	}
	for i := 1; i < len(kinds); i++ {
		if kinds[i-1] >= kinds[i] {
			t.Fatal("Kinds() not sorted")
		}
	}
	for _, k := range kinds {
		if _, ok := families[k]; !ok {
			t.Errorf("Kinds() lists unknown %q", k)
		}
	}
}
