package graphspec_test

import (
	"math"
	"reflect"
	"testing"

	"dispersion/graphspec"
	"dispersion/internal/graph"
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

// FuzzBuild fuzzes graph construction against the cost model: a spec
// must build or return an error, never panic, and every spec that builds
// must have a Cost equal to the built graph's footprint — its vertices,
// its undirected edges and its graph.Footprint bytes. Equality is exact
// for the deterministic families. A gnp build is a sample conditioned on
// connectivity, so its edges (and with them its bytes) may differ from
// the modeled count by gnpTolerance. Specs whose Cost passes
// maxFuzzBytes are skipped, which bounds each build's memory and time.
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
		// Specs the cost model prices without building: large CSR graphs
		// and an implicit family whose degree sum is not walked.
		"hypercube:14", "hypercube:15", "grid:40000x40000", "bintree:30",
		"hair:100000", "regular:40000000,50", "wcomplete:100000,1",
		"complete:2000000000", "circulant:12,6", "gnp:200,0.02", "gnp:3,0.1", "gnp:1,1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := graphspec.Parse(spec)
		if err != nil {
			return
		}
		c, costErr := s.Cost()
		if costErr == nil && c.Bytes > maxFuzzBytes {
			return
		}
		g, err := s.Build(1)
		if err != nil {
			return
		}
		if costErr != nil {
			t.Fatalf("Build(%q) succeeded, but Cost failed: %v", spec, costErr)
		}
		if g.N() < 1 {
			t.Fatalf("Build(%q) returned a graph with %d vertices", spec, g.N())
		}
		if int64(g.N()) != c.Vertices {
			t.Fatalf("Cost(%q).Vertices = %d, built %d", spec, c.Vertices, g.N())
		}
		m, counted := edges(g)
		bytes := graph.Footprint(g)
		if s.Kind == "gnp" {
			tol := gnpTolerance(c.Vertices, c.Edges)
			if d := abs(m - c.Edges); d > tol {
				t.Fatalf("Cost(%q).Edges = %d, built %d: off by %d, tolerance %d", spec, c.Edges, m, d, tol)
			}
			if want := graph.CSRBytes(c.Vertices, m); c.Bytes != graph.CSRBytes(c.Vertices, c.Edges) || bytes != want {
				t.Fatalf("Cost(%q).Bytes = %d, footprint %d: not the CSR bytes of the counted edges", spec, c.Bytes, bytes)
			}
			return
		}
		if counted && m != c.Edges {
			t.Fatalf("Cost(%q).Edges = %d, built %d", spec, c.Edges, m)
		}
		if bytes != c.Bytes {
			t.Fatalf("Cost(%q).Bytes = %d, graph.Footprint = %d", spec, c.Bytes, bytes)
		}
	})
}

// FuzzCanonical fuzzes Spec.Canonical against Build: a spec's Canonical
// form exists exactly when its arguments parse, is its own Canonical
// form, and builds a graph identical to the spec's own. Specs whose Cost
// passes maxFuzzBytes are skipped.
func FuzzCanonical(f *testing.F) {
	for _, seed := range []string{
		"complete:08", "complete:+8", "complete: 8", "complete:3.0", "path:1",
		"torus: 8 x08x+8", "grid:-0x3", "grid:2x 3", "circulant:12,01,-3",
		"regular:016, 3", "tree:+9", "gnp:32, 0.50", "gnp:32,5e-1",
		"wcomplete:8,1.0", "wcomplete:8,0x1p-2", "wcomplete:8,-0x1p-2",
		"wcomplete:8,-0", "wcomplete:8,NaN", "wcycle:9, 3", "wcycle:9,3,1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := graphspec.Parse(spec)
		if err != nil {
			return
		}
		c, costErr := s.Cost()
		canon, err := s.Canonical()
		if (err == nil) != (costErr == nil) {
			t.Fatalf("Canonical(%q) error %v, Cost error %v", spec, err, costErr)
		}
		if err != nil || c.Bytes > maxFuzzBytes {
			return
		}
		if again, err := canon.Canonical(); err != nil || again != canon {
			t.Fatalf("Canonical(%q) = %q, whose Canonical is %q, %v", spec, canon, again, err)
		}
		g, err := s.Build(1)
		g2, err2 := canon.Build(1)
		if (err == nil) != (err2 == nil) {
			t.Fatalf("Build(%q) error %v, Build of its Canonical %q error %v", spec, err, canon, err2)
		}
		if err == nil && !reflect.DeepEqual(g, g2) {
			t.Fatalf("Build(%q) and Build of its Canonical %q differ", spec, canon)
		}
	})
}

// maxFuzzBytes is the largest modeled footprint FuzzBuild builds.
const maxFuzzBytes = 1 << 20

// edges counts g's undirected edges: M for the CSR-backed graphs, half
// the degree sum for implicit ones. counted is false for an implicit
// graph of more than 2^20 vertices, whose degree sum is not walked.
func edges(g graph.Graph) (m int64, counted bool) {
	if c, ok := g.(interface{ M() int }); ok {
		return int64(c.M()), true
	}
	if g.N() > 1<<20 {
		return 0, false
	}
	var deg int64
	for v := range g.N() {
		deg += int64(g.Degree(v))
	}
	return deg / 2, true
}

// gnpTolerance is how far a built gnp graph's edges may sit from its
// modeled count: eight binomial standard deviations of G(n, p)'s edge
// count, plus 3 for small graphs whose deviation is near 0. The model's
// count stands in for the mean, which the connectivity conditioning lifts
// by less than a deviation wherever a connected sample is likely
// enough to be drawn.
func gnpTolerance(n, modeled int64) int64 {
	pairs := float64(n) * float64(n-1) / 2
	if pairs == 0 {
		return 3
	}
	p := min(float64(modeled)/pairs, 1)
	return int64(8*math.Sqrt(pairs*p*(1-p))) + 3
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
