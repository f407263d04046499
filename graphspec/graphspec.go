// Package graphspec parses the compact textual graph-family specs used
// across the command-line tools and the public dispersion facade:
//
//	path:N  cycle:N  complete:N  star:N  hypercube:K  bintree:LEVELS
//	lollipop:N  hair:N  pimple:N,H  treepath:LEVELS,PATHLEN
//	grid:AxB[xC...]  torus:AxB[xC...]  circulant:N,S1[,S2...]
//	regular:N,D  rregular:N,D  gnp:N,P  tree:N
//	wcomplete:N,ALPHA  wcycle:N,B
//
// The w-prefixed kinds build weighted graphs (graph.WeightedCSR) whose
// walks draw neighbors in proportion to per-edge weights through Walker
// alias tables: wcomplete weights edge {u,v} by ((u+1)(v+1))^ALPHA, and
// wcycle gives the cycle's odd-vertex edges weight B against 1.
//
// A spec names a graph family and its parameters; random families
// (regular, rregular, gnp, tree) are drawn deterministically from a
// caller-supplied seed, so the same (spec, seed) pair always builds the
// same graph.
//
// Because the spec carries the family's full structure, Build can choose
// the graph backend without constructing edges: generated families whose
// adjacency is pure arithmetic (torus, circulant, rregular, and the
// complete/cycle/path closed forms, plus cache-hostile hypercubes) come
// back as adjacency-free implicit graphs in O(1) memory, while irregular
// constructions and the rejection-sampled random families (regular, gnp,
// tree) build CSR adjacency as before. The backends are step-for-step
// bit-identical, so the choice never changes a simulation's sample path.
//
// Parse performs the syntax split and validates the family name; Build
// checks the arguments against the family constructor's preconditions
// (sizes in range, a vertex count that fits the backends' int32 vertex
// ids), so an out-of-range argument is an error rather than a panic, and
// constructs the graph. The one-shot helper Build(spec, seed) does both.
//
// A valid spec may still describe a very large CSR graph, so Cost models
// a build without running it: from the same parsed arguments it returns
// the vertex count, the edge count and the resident bytes of the backend
// Build would choose — exactly graph.Footprint of the built graph for
// every deterministic family, and for gnp the bytes of its expected edge
// count. A caller that must bound memory, like the dispersion server,
// checks Cost before it calls Build, and Footprint measures the graph it
// got. Canonical renders a spec's arguments in one text per argument
// list, so a caller that keeps built graphs can key them by it.
package graphspec

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"dispersion/internal/graph"
	"dispersion/internal/rng"
)

// Spec is a parsed graph specification: a family name and its raw
// argument string. The zero Spec is invalid.
type Spec struct {
	// Kind is the graph family, e.g. "complete" or "torus".
	Kind string
	// Args is the family's raw argument string, e.g. "128" or "16x16".
	Args string
}

// String renders the spec back to its textual kind:args form.
func (s Spec) String() string { return s.Kind + ":" + s.Args }

// Random reports whether the family is drawn from the seed (regular,
// rregular, gnp, tree) rather than being a deterministic construction.
func (s Spec) Random() bool {
	f, ok := families[s.Kind]
	return ok && f.random
}

// Parse splits a textual spec into a Spec, validating the family name.
// Argument values are validated by Build.
func Parse(spec string) (Spec, error) {
	kind, args, ok := strings.Cut(spec, ":")
	if !ok {
		return Spec{}, fmt.Errorf("graphspec: spec %q needs kind:args", spec)
	}
	if _, known := families[kind]; !known {
		return Spec{}, fmt.Errorf("graphspec: unknown graph kind %q (want one of %s)",
			kind, strings.Join(Kinds(), "|"))
	}
	return Spec{Kind: kind, Args: args}, nil
}

// Cost is what Build would spend on a spec's graph.
type Cost struct {
	// Vertices is the graph's vertex count.
	Vertices int64
	// Edges is its undirected edge count: exact for every family but
	// gnp, whose Cost carries the expected count of G(n, p), raised to
	// the n-1 edges its connectivity conditioning guarantees.
	Edges int64
	// Bytes is the resident size of the backend Build chooses, in
	// graph.Footprint's terms: adjacency, offsets, weights and alias
	// tables for CSR-backed graphs, the kernel tables for implicit ones
	// (none for the closed forms). It saturates at math.MaxInt64.
	Bytes int64
}

// Cost returns the vertices, undirected edges and resident bytes of the
// graph Build would construct, computed from the arguments through
// Build's own parsing and range checks, without building anything. Every
// argument error Cost reports, Build reports too. Build can still fail
// where Cost succeeds: a random family may find no connected sample, a
// CSR adjacency may not fit int32 offsets, and some constructor
// preconditions are checked only at build time.
func (s Spec) Cost() (Cost, error) {
	rc, err := s.recipe()
	return rc.cost, err
}

// Footprint returns the resident bytes of a built graph in Cost.Bytes
// terms (graph.Footprint): for a graph Build made from a deterministic
// spec, exactly that spec's Cost.Bytes.
func Footprint(g graph.Graph) int64 { return graph.Footprint(g) }

// Build constructs the graph described by the spec. Random families are
// drawn deterministically from seed; deterministic families ignore it.
func (s Spec) Build(seed uint64) (graph.Graph, error) {
	rc, err := s.recipe()
	if err != nil {
		return nil, err
	}
	return rc.build(rng.New(seed))
}

// Canonical returns the spec with its arguments in one canonical text:
// integers in plain base 10, and the float parameter of gnp, wcomplete
// and wcycle in strconv's shortest form. Specs whose arguments parse to
// the same values, like "complete:8", "complete:08", "complete:+8" and
// "complete: 8", have one Canonical spec and build the same graph from
// the same seed. It reports the argument errors Cost and Build report.
func (s Spec) Canonical() (Spec, error) {
	if _, err := s.recipe(); err != nil {
		return Spec{}, err
	}
	// The family's parse accepted every argument, so each part is an
	// integer except a float family's last.
	f := families[s.Kind]
	sep := ","
	if f.grid {
		sep = "x"
	}
	parts := strings.Split(s.Args, sep)
	for i, p := range parts {
		p = strings.TrimSpace(p)
		if f.float && i == len(parts)-1 {
			v, _ := strconv.ParseFloat(p, 64)
			parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
		} else {
			v, _ := strconv.Atoi(p)
			parts[i] = strconv.Itoa(v)
		}
	}
	return Spec{Kind: s.Kind, Args: strings.Join(parts, sep)}, nil
}

// recipe parses the spec's arguments into its family's recipe.
func (s Spec) recipe() (recipe, error) {
	f, ok := families[s.Kind]
	if !ok {
		return recipe{}, fmt.Errorf("graphspec: unknown graph kind %q", s.Kind)
	}
	return f.parse(s)
}

// Build is the one-shot helper: Parse followed by Spec.Build.
func Build(spec string, seed uint64) (graph.Graph, error) {
	s, err := Parse(spec)
	if err != nil {
		return nil, err
	}
	return s.Build(seed)
}

// Kinds returns the known family names in sorted order.
func Kinds() []string {
	out := make([]string, 0, len(families))
	for k := range families {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// family couples a graph family's argument parser with the shape of
// its arguments and whether its builds consume the seed.
type family struct {
	random bool
	grid   bool // arguments are x-separated sides, not a comma list
	float  bool // the last argument is a float
	parse  func(s Spec) (recipe, error)
}

// recipe is a spec whose arguments parsed: its graph's cost and the
// build that makes it. Cost and Build both start from one, so they can
// never disagree on the arguments.
type recipe struct {
	cost  Cost
	build buildFunc
}

// buildFunc constructs a recipe's graph, drawing random families from r.
type buildFunc func(r *rng.Source) (graph.Graph, error)

// implicit is the recipe of an adjacency-free build of n vertices and m
// edges whose kernel tables take the given bytes.
func implicit(n, m, bytes int64, build buildFunc) recipe {
	return recipe{cost: Cost{Vertices: n, Edges: m, Bytes: bytes}, build: build}
}

// csr is the recipe of a CSR build of n vertices and m edges.
func csr(s Spec, n, m int64, build buildFunc) recipe {
	return adjacency(s, Cost{Vertices: n, Edges: m, Bytes: graph.CSRBytes(n, m)}, build)
}

// weighted is the recipe of a WeightedCSR build of n vertices and m edges.
func weighted(s Spec, n, m int64, build buildFunc) recipe {
	return adjacency(s, Cost{Vertices: n, Edges: m, Bytes: graph.WeightedCSRBytes(n, m)}, build)
}

// adjacency finishes the recipe of a CSR-backed build, plain or
// weighted. Its 2m adjacency entries sit behind int32 offsets, so a
// build with more fails before allocating anything.
func adjacency(s Spec, c Cost, build buildFunc) recipe {
	if 2*c.Edges > maxVertices {
		build = func(*rng.Source) (graph.Graph, error) {
			return nil, fmt.Errorf("graphspec: spec %q has more than %d adjacency entries", s.String(), maxVertices)
		}
	}
	return recipe{cost: c, build: build}
}

// maxVertices is the largest vertex count a spec may ask for: every
// backend indexes vertices with int32.
const maxVertices = math.MaxInt32

// maxLevels bounds tree depths and hypercube dimensions so 2^levels
// vertices fit maxVertices.
const maxLevels = 30

var families = map[string]family{
	"path": {parse: func(s Spec) (recipe, error) {
		n, err := atoiRange(s, s.Args, "N", 1, maxVertices)
		if err != nil {
			return recipe{}, err
		}
		if n >= 2 {
			return implicit(int64(n), int64(n)-1, 0, func(*rng.Source) (graph.Graph, error) {
				return graph.ImplicitPath(n), nil
			}), nil
		}
		return csr(s, 1, 0, func(*rng.Source) (graph.Graph, error) { return graph.Path(n), nil }), nil
	}},
	"cycle": {parse: func(s Spec) (recipe, error) {
		n, err := atoiRange(s, s.Args, "N", 3, maxVertices)
		if err != nil {
			return recipe{}, err
		}
		return implicit(int64(n), int64(n), 0, func(*rng.Source) (graph.Graph, error) {
			return graph.ImplicitCycle(n), nil
		}), nil
	}},
	"complete": {parse: func(s Spec) (recipe, error) {
		n, err := atoiRange(s, s.Args, "N", 1, maxVertices)
		if err != nil {
			return recipe{}, err
		}
		if n >= 2 {
			return implicit(int64(n), int64(n)*int64(n-1)/2, 0, func(*rng.Source) (graph.Graph, error) {
				return graph.ImplicitComplete(n), nil
			}), nil
		}
		return csr(s, 1, 0, func(*rng.Source) (graph.Graph, error) { return graph.Complete(n), nil }), nil
	}},
	"hypercube": {parse: func(s Spec) (recipe, error) {
		k, err := atoiRange(s, s.Args, "K", 1, maxLevels)
		if err != nil {
			return recipe{}, err
		}
		n, m := int64(1)<<k, int64(k)<<(k-1)
		// Small hypercubes walk faster on a cache-resident CSR adjacency
		// (see the footprint gate in internal/graph); large ones go
		// implicit, which is also the only way to fit k >= 27 in RAM.
		if !graph.HypercubePrefersCSR(k) {
			return implicit(n, m, 0, func(*rng.Source) (graph.Graph, error) {
				return graph.ImplicitHypercube(k), nil
			}), nil
		}
		return csr(s, n, m, func(*rng.Source) (graph.Graph, error) { return graph.Hypercube(k), nil }), nil
	}},
	"star": intArg(graph.Star, 1, maxVertices, func(n int64) (int64, int64) { return n, n - 1 }),
	"bintree": intArg(graph.CompleteBinaryTree, 1, maxLevels, func(levels int64) (int64, int64) {
		n := int64(1)<<levels - 1
		return n, n - 1
	}),
	"lollipop": intArg(graph.Lollipop, 4, maxVertices, func(n int64) (int64, int64) {
		k := (n + 1) / 2
		return n, k*(k-1)/2 + n - k
	}),
	"hair": intArg(graph.CliqueWithHair, 3, maxVertices, func(n int64) (int64, int64) {
		return n, (n-1)*(n-2)/2 + 1
	}),
	"pimple": {parse: func(s Spec) (recipe, error) {
		vs, err := intPair(s, "N,H")
		if err != nil {
			return recipe{}, err
		}
		if err := inRange(s, "N", vs[0], 5, maxVertices); err != nil {
			return recipe{}, err
		}
		if err := inRange(s, "H", vs[1], 2, vs[0]-2); err != nil {
			return recipe{}, err
		}
		n, h := int64(vs[0]), int64(vs[1])
		return csr(s, n, (n-2)*(n-3)/2+h, func(*rng.Source) (graph.Graph, error) {
			return graph.CliqueWithHairOnPimple(vs[0], vs[1]), nil
		}), nil
	}},
	"treepath": {parse: func(s Spec) (recipe, error) {
		vs, err := intPair(s, "LEVELS,PATHLEN")
		if err != nil {
			return recipe{}, err
		}
		if err := inRange(s, "LEVELS", vs[0], 1, maxLevels); err != nil {
			return recipe{}, err
		}
		if err := inRange(s, "PATHLEN", vs[1], 1, maxVertices-(1<<vs[0]-1)); err != nil {
			return recipe{}, err
		}
		n := int64(1)<<vs[0] - 1 + int64(vs[1])
		return csr(s, n, n-1, func(*rng.Source) (graph.Graph, error) {
			return graph.BinaryTreeWithPath(vs[0], vs[1]), nil
		}), nil
	}},
	"grid":  {grid: true, parse: gridArg},
	"torus": {grid: true, parse: gridArg},
	"circulant": {parse: func(s Spec) (recipe, error) {
		vs, err := ints(s, s.Args, ",")
		if err != nil {
			return recipe{}, err
		}
		if len(vs) < 2 {
			return recipe{}, fmt.Errorf("graphspec: circulant wants N,S1[,S2...]")
		}
		if err := inRange(s, "N", vs[0], 3, maxVertices); err != nil {
			return recipe{}, err
		}
		// Each offset s contributes neighbours v±s, which coincide when
		// 2s = N; ImplicitCirculant checks the offsets themselves.
		deg := int64(0)
		for _, off := range vs[1:] {
			deg += 2
			if 2*off == vs[0] {
				deg--
			}
		}
		n := int64(vs[0])
		return implicit(n, n*deg/2, graph.ImplicitCirculantBytes(len(vs)-1), func(*rng.Source) (graph.Graph, error) {
			return graph.ImplicitCirculant(vs[0], vs[1:])
		}), nil
	}},
	"regular": {random: true, parse: func(s Spec) (recipe, error) {
		vs, err := intPair(s, "N,D")
		if err != nil {
			return recipe{}, err
		}
		if err := inRange(s, "N", vs[0], 2, maxVertices); err != nil {
			return recipe{}, err
		}
		if err := inRange(s, "D", vs[1], 1, vs[0]-1); err != nil {
			return recipe{}, err
		}
		n, d := int64(vs[0]), int64(vs[1])
		return csr(s, n, n*d/2, func(r *rng.Source) (graph.Graph, error) {
			return graph.RandomRegular(vs[0], vs[1], r)
		}), nil
	}},
	"rregular": {random: true, parse: func(s Spec) (recipe, error) {
		vs, err := intPair(s, "N,D")
		if err != nil {
			return recipe{}, err
		}
		if err := inRange(s, "N", vs[0], 3, maxVertices); err != nil {
			return recipe{}, err
		}
		// ImplicitRandomRegular checks D's parity and upper bound.
		if err := inRange(s, "D", vs[1], 2, maxVertices); err != nil {
			return recipe{}, err
		}
		n, d := int64(vs[0]), int64(vs[1])
		return implicit(n, n*d/2, graph.ImplicitRandomRegularBytes(vs[1]), func(r *rng.Source) (graph.Graph, error) {
			// The permutation seed is a fixed function of the build seed,
			// so (spec, seed) pins the instance like every other random
			// family.
			return graph.ImplicitRandomRegular(vs[0], vs[1], r.Uint64())
		}), nil
	}},
	"gnp": {random: true, float: true, parse: func(s Spec) (recipe, error) {
		nStr, pStr, ok := strings.Cut(s.Args, ",")
		if !ok {
			return recipe{}, fmt.Errorf("graphspec: gnp wants N,P")
		}
		n, err := atoiRange(s, nStr, "N", 1, maxVertices)
		if err != nil {
			return recipe{}, err
		}
		p, err := strconv.ParseFloat(strings.TrimSpace(pStr), 64)
		if err != nil {
			return recipe{}, fmt.Errorf("graphspec: bad probability %q", pStr)
		}
		if !(p > 0 && p <= 1) { // NaN fails too
			return recipe{}, fmt.Errorf("graphspec: probability %v in spec %q out of range (0, 1]", p, s.String())
		}
		pairs := float64(n) * float64(n-1) / 2
		m := max(int64(math.Round(p*pairs)), int64(n)-1)
		return csr(s, int64(n), m, func(r *rng.Source) (graph.Graph, error) {
			return graph.GNP(n, p, r)
		}), nil
	}},
	"tree": {random: true, parse: func(s Spec) (recipe, error) {
		n, err := atoiRange(s, s.Args, "N", 1, maxVertices)
		if err != nil {
			return recipe{}, err
		}
		return csr(s, int64(n), int64(n)-1, func(r *rng.Source) (graph.Graph, error) {
			return graph.RandomTree(n, r), nil
		}), nil
	}},
	"wcomplete": {float: true, parse: func(s Spec) (recipe, error) {
		n, alpha, err := intFloatArgs(s, "N,ALPHA", 2)
		if err != nil {
			return recipe{}, err
		}
		m := int64(n) * int64(n-1) / 2
		return weighted(s, int64(n), m, func(*rng.Source) (graph.Graph, error) {
			return graph.WeightedComplete(n, alpha)
		}), nil
	}},
	"wcycle": {float: true, parse: func(s Spec) (recipe, error) {
		n, bias, err := intFloatArgs(s, "N,B", 3)
		if err != nil {
			return recipe{}, err
		}
		return weighted(s, int64(n), int64(n), func(*rng.Source) (graph.Graph, error) {
			return graph.WeightedCycle(n, bias)
		}), nil
	}},
}

// intFloatArgs splits an "INT,FLOAT" argument pair, the shape of the
// weighted-family parameters, and checks lo <= INT <= maxVertices.
func intFloatArgs(s Spec, want string, lo int) (int, float64, error) {
	nStr, fStr, ok := strings.Cut(s.Args, ",")
	if !ok {
		return 0, 0, fmt.Errorf("graphspec: %s wants %s", s.Kind, want)
	}
	n, err := atoiRange(s, nStr, "N", lo, maxVertices)
	if err != nil {
		return 0, 0, err
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(fStr), 64)
	if err != nil {
		return 0, 0, fmt.Errorf("graphspec: bad float %q in spec %q", fStr, s.String())
	}
	return n, f, nil
}

func atoi(s Spec, v string) (int, error) {
	n, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil {
		return 0, fmt.Errorf("graphspec: bad integer %q in spec %q", v, s.String())
	}
	return n, nil
}

// inRange reports an error unless lo <= n <= hi, naming the argument.
func inRange(s Spec, name string, n, lo, hi int) error {
	if n < lo || n > hi {
		return fmt.Errorf("graphspec: %s = %d in spec %q out of range [%d, %d]", name, n, s.String(), lo, hi)
	}
	return nil
}

// atoiRange parses an integer argument and checks lo <= n <= hi.
func atoiRange(s Spec, v, name string, lo, hi int) (int, error) {
	n, err := atoi(s, v)
	if err != nil {
		return 0, err
	}
	return n, inRange(s, name, n, lo, hi)
}

func ints(s Spec, v, sep string) ([]int, error) {
	parts := strings.Split(v, sep)
	out := make([]int, len(parts))
	for i, p := range parts {
		n, err := atoi(s, p)
		if err != nil {
			return nil, err
		}
		out[i] = n
	}
	return out, nil
}

// intArg is the family of a single-integer CSR constructor whose
// precondition is lo <= n <= hi; size gives its vertex and edge counts.
func intArg(ctor func(int) *graph.CSR, lo, hi int, size func(n int64) (vertices, edges int64)) family {
	return family{parse: func(s Spec) (recipe, error) {
		n, err := atoiRange(s, s.Args, "N", lo, hi)
		if err != nil {
			return recipe{}, err
		}
		v, m := size(int64(n))
		return csr(s, v, m, func(*rng.Source) (graph.Graph, error) { return ctor(n), nil }), nil
	}}
}

// intPair splits an "INT,INT" argument pair.
func intPair(s Spec, want string) ([]int, error) {
	vs, err := ints(s, s.Args, ",")
	if err != nil {
		return nil, err
	}
	if len(vs) != 2 {
		return nil, fmt.Errorf("graphspec: %s wants %s", s.Kind, want)
	}
	return vs, nil
}

// gridArg parses the sides of a grid or torus. A torus with 1 to
// graph.MaxTorusDims effective (side >= 3) dimensions builds the implicit
// backend; every other shape builds a CSR Grid.
func gridArg(s Spec) (recipe, error) {
	sides, err := ints(s, s.Args, "x")
	if err != nil {
		return recipe{}, err
	}
	torus := s.Kind == "torus"
	n, eff := 1, 0
	for _, side := range sides {
		if err := inRange(s, "side", side, 1, maxVertices); err != nil {
			return recipe{}, err
		}
		if torus && side == 2 {
			return recipe{}, fmt.Errorf("graphspec: torus side 2 in spec %q would create parallel edges", s.String())
		}
		if n > maxVertices/side {
			return recipe{}, fmt.Errorf("graphspec: spec %q has more than %d vertices", s.String(), maxVertices)
		}
		n *= side
		if side >= 3 {
			eff++
		}
	}
	// A torus has n edges along each effective dimension (sides of
	// length 1 add none); a grid has side-1 along each of its n/side
	// lines.
	var m int64
	for _, side := range sides {
		if torus {
			if side >= 3 {
				m += int64(n)
			}
		} else {
			m += int64(side-1) * int64(n/side)
		}
	}
	if torus && eff >= 1 && eff <= graph.MaxTorusDims {
		// The torus is the flagship implicit family: the spec's sides are
		// all Build needs, so no adjacency is ever constructed.
		return implicit(int64(n), m, graph.ImplicitTorusBytes(eff), func(*rng.Source) (graph.Graph, error) {
			return graph.ImplicitTorus(sides)
		}), nil
	}
	return csr(s, int64(n), m, func(*rng.Source) (graph.Graph, error) { return graph.Grid(sides, torus), nil }), nil
}
