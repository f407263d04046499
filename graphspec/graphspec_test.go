package graphspec

import (
	"reflect"
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
	if !reflect.DeepEqual(ac.Edges(), bc.Edges()) {
		t.Fatal("same seed, different graphs")
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
	if len(kinds) != len(builders) {
		t.Fatalf("Kinds() has %d entries, want %d", len(kinds), len(builders))
	}
	for i := 1; i < len(kinds); i++ {
		if kinds[i-1] >= kinds[i] {
			t.Fatal("Kinds() not sorted")
		}
	}
	for _, k := range kinds {
		if _, ok := builders[k]; !ok {
			t.Errorf("Kinds() lists unknown %q", k)
		}
	}
}
