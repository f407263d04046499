package graphspec_test

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"dispersion/graphspec"
)

// FuzzParse fuzzes the graph-spec parser: it must never panic, and every
// accepted spec must round-trip through Spec.String — parsing the rendered
// form reproduces the same Spec. (Argument validation belongs to Build, so
// the round trip is purely syntactic.)
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"complete:128", "path:4", "cycle:0", "star:-1", "hypercube:16",
		"grid:4x4", "torus:8x8x8", "regular:512,4", "gnp:64,0.5", "tree:33",
		"pimple:96,4", "treepath:10,32", "bintree:9", "lollipop:32", "hair:96",
		"", ":", "complete", "complete:", ":128", "torus:4x4:extra",
		"complete:1:2", "gnp:64,0.5,9", "unknown:1", "COMPLETE:8", "torus:4xx4",
		// Implicit-backend syntaxes: the circulant offset list and the
		// seeded random-regular family, plus malformed variants.
		"circulant:256,1,7,31", "circulant:12,3,6", "circulant:9,",
		"circulant:8,1,1", "circulant:7,-2", "circulant:2,1,x",
		"rregular:1000000,4", "rregular:30,3", "rregular:16,", "rregular:,4",
		"rregular:16,4,9", "torus:1024x1024", "torus:0x4", "torus:2x2",
		// Weighted-family syntaxes: float parameters, plus malformed
		// variants (missing comma, bad float, non-positive weights).
		"wcomplete:64,0.5", "wcomplete:8,-1", "wcomplete:8,0", "wcomplete:8",
		"wcomplete:8,nan", "wcomplete:8,inf", "wcomplete:,1", "wcomplete:8,1,2",
		"wcycle:4096,3", "wcycle:9,0.25", "wcycle:5,", "wcycle:5,-2",
		"wcycle:2,1", "wcycle:x,1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := graphspec.Parse(spec)
		if err != nil {
			return
		}
		rendered := s.String()
		s2, err := graphspec.Parse(rendered)
		if err != nil {
			t.Fatalf("Parse(%q) accepted but re-parsing its String %q failed: %v", spec, rendered, err)
		}
		if s2 != s {
			t.Fatalf("round trip diverged: Parse(%q) = %+v, Parse(%q) = %+v", spec, s, rendered, s2)
		}
	})
}

// FuzzBuild fuzzes graph construction: a spec whose numeric arguments
// are all at most 64 in magnitude must build or return an error, never
// panic. Within that bound a few families can still ask for a large CSR
// build (a depth-30 tree, a 64^5 grid); build cost has no bound yet, so
// specs whose CSR vertex count would pass 2^16 are skipped.
func FuzzBuild(f *testing.F) {
	for _, seed := range []string{
		"path:0", "path:1", "path:64", "cycle:2", "cycle:3", "complete:0",
		"complete:1", "star:0", "star:2", "hypercube:0", "hypercube:30",
		"hypercube:-1", "bintree:0", "bintree:9", "lollipop:3", "lollipop:4",
		"hair:2", "hair:9", "pimple:4,2", "pimple:12,11", "pimple:12,4",
		"treepath:0,4", "treepath:3,0", "treepath:10,32", "tree:0", "tree:33",
		"grid:3x0", "grid:4x4", "grid:1x1", "torus:4x2", "torus:0x4",
		"torus:1x1", "torus:8x8x8", "torus:3x1x4x5", "torus:64x64x64x64x64",
		"torus:64x64x64x64x64x64", "torus:3x3x3x3x3x3x3x3x3",
		"circulant:2,1", "circulant:12,1,3", "circulant:9,5", "rregular:2,2",
		"rregular:30,4", "regular:7,3", "regular:16,3", "regular:64,63",
		"gnp:0,0.5", "gnp:10,0", "gnp:32,0.5", "gnp:8,NaN", "wcomplete:1,1",
		"wcomplete:8,64", "wcomplete:8,-64", "wcycle:2,1", "wcycle:9,64",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := graphspec.Parse(spec)
		if err != nil || !small(s) {
			return
		}
		g, err := s.Build(1)
		if err == nil && g.N() < 1 {
			t.Fatalf("Build(%q) returned a graph with %d vertices", spec, g.N())
		}
	})
}

// small reports whether every numeric argument of s is at most 64 in
// magnitude and its CSR build, if any, stays under 2^16 vertices.
func small(s graphspec.Spec) bool {
	fields := strings.FieldsFunc(s.Args, func(r rune) bool { return r == ',' || r == 'x' })
	nums := make([]float64, len(fields))
	for i, a := range fields {
		x, err := strconv.ParseFloat(strings.TrimSpace(a), 64)
		if err != nil {
			return true // a malformed argument must fail cleanly too
		}
		if !(math.Abs(x) <= 64) {
			return false
		}
		nums[i] = x
	}
	const maxCSR = 1 << 16
	switch s.Kind {
	case "bintree", "treepath":
		return len(nums) == 0 || nums[0] <= 16
	case "grid", "torus":
		// A torus with at most 8 sides >= 3 builds the implicit backend,
		// whatever its size; larger shapes build a CSR grid.
		n, eff := 1.0, 0
		for _, x := range nums {
			n *= math.Abs(x)
			if x >= 3 {
				eff++
			}
		}
		return (s.Kind == "torus" && eff <= 8) || n <= maxCSR
	}
	return true
}
