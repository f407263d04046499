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
// constructs the graph. Build cost is not bounded: a valid spec may still
// describe a very large CSR graph. The one-shot helper Build(spec, seed)
// does both.
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
	b, ok := builders[s.Kind]
	return ok && b.random
}

// Parse splits a textual spec into a Spec, validating the family name.
// Argument values are validated by Build.
func Parse(spec string) (Spec, error) {
	kind, args, ok := strings.Cut(spec, ":")
	if !ok {
		return Spec{}, fmt.Errorf("graphspec: spec %q needs kind:args", spec)
	}
	if _, known := builders[kind]; !known {
		return Spec{}, fmt.Errorf("graphspec: unknown graph kind %q (want one of %s)",
			kind, strings.Join(Kinds(), "|"))
	}
	return Spec{Kind: kind, Args: args}, nil
}

// Build constructs the graph described by the spec. Random families are
// drawn deterministically from seed; deterministic families ignore it.
func (s Spec) Build(seed uint64) (graph.Graph, error) {
	b, ok := builders[s.Kind]
	if !ok {
		return nil, fmt.Errorf("graphspec: unknown graph kind %q", s.Kind)
	}
	return b.build(s, rng.New(seed))
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
	out := make([]string, 0, len(builders))
	for k := range builders {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// builder couples a family's constructor with whether it consumes the seed.
type builder struct {
	random bool
	build  func(s Spec, r *rng.Source) (graph.Graph, error)
}

// maxVertices is the largest vertex count a spec may ask for: every
// backend indexes vertices with int32.
const maxVertices = math.MaxInt32

// maxLevels bounds tree depths and hypercube dimensions so 2^levels
// vertices fit maxVertices.
const maxLevels = 30

var builders = map[string]builder{
	"path": {build: func(s Spec, _ *rng.Source) (graph.Graph, error) {
		n, err := atoiRange(s, s.Args, "N", 1, maxVertices)
		if err != nil {
			return nil, err
		}
		if n >= 2 {
			return graph.ImplicitPath(n), nil
		}
		return graph.Path(n), nil
	}},
	"cycle": {build: func(s Spec, _ *rng.Source) (graph.Graph, error) {
		n, err := atoiRange(s, s.Args, "N", 3, maxVertices)
		if err != nil {
			return nil, err
		}
		return graph.ImplicitCycle(n), nil
	}},
	"complete": {build: func(s Spec, _ *rng.Source) (graph.Graph, error) {
		n, err := atoiRange(s, s.Args, "N", 1, maxVertices)
		if err != nil {
			return nil, err
		}
		if n >= 2 {
			return graph.ImplicitComplete(n), nil
		}
		return graph.Complete(n), nil
	}},
	"hypercube": {build: func(s Spec, _ *rng.Source) (graph.Graph, error) {
		k, err := atoiRange(s, s.Args, "K", 1, maxLevels)
		if err != nil {
			return nil, err
		}
		// Small hypercubes walk faster on a cache-resident CSR adjacency
		// (see the footprint gate in internal/graph); large ones go
		// implicit, which is also the only way to fit k >= 27 in RAM.
		if !graph.HypercubePrefersCSR(k) {
			return graph.ImplicitHypercube(k), nil
		}
		return graph.Hypercube(k), nil
	}},
	"star":     {build: intArg(graph.Star, 1, maxVertices)},
	"bintree":  {build: intArg(graph.CompleteBinaryTree, 1, maxLevels)},
	"lollipop": {build: intArg(graph.Lollipop, 4, maxVertices)},
	"hair":     {build: intArg(graph.CliqueWithHair, 3, maxVertices)},
	"pimple": {build: func(s Spec, _ *rng.Source) (graph.Graph, error) {
		vs, err := intPair(s, "N,H")
		if err != nil {
			return nil, err
		}
		if err := inRange(s, "N", vs[0], 5, maxVertices); err != nil {
			return nil, err
		}
		if err := inRange(s, "H", vs[1], 2, vs[0]-2); err != nil {
			return nil, err
		}
		return graph.CliqueWithHairOnPimple(vs[0], vs[1]), nil
	}},
	"treepath": {build: func(s Spec, _ *rng.Source) (graph.Graph, error) {
		vs, err := intPair(s, "LEVELS,PATHLEN")
		if err != nil {
			return nil, err
		}
		if err := inRange(s, "LEVELS", vs[0], 1, maxLevels); err != nil {
			return nil, err
		}
		if err := inRange(s, "PATHLEN", vs[1], 1, maxVertices-(1<<vs[0]-1)); err != nil {
			return nil, err
		}
		return graph.BinaryTreeWithPath(vs[0], vs[1]), nil
	}},
	"grid":  {build: gridArg},
	"torus": {build: gridArg},
	"circulant": {build: func(s Spec, _ *rng.Source) (graph.Graph, error) {
		vs, err := ints(s, s.Args, ",")
		if err != nil {
			return nil, err
		}
		if len(vs) < 2 {
			return nil, fmt.Errorf("graphspec: circulant wants N,S1[,S2...]")
		}
		if err := inRange(s, "N", vs[0], 3, maxVertices); err != nil {
			return nil, err
		}
		return graph.ImplicitCirculant(vs[0], vs[1:])
	}},
	"regular": {random: true, build: func(s Spec, r *rng.Source) (graph.Graph, error) {
		vs, err := intPair(s, "N,D")
		if err != nil {
			return nil, err
		}
		// The CSR adjacency holds N·D entries behind int32 offsets.
		if err := inRange(s, "N", vs[0], 1, maxVertices); err != nil {
			return nil, err
		}
		if vs[1] > 0 && vs[0] > maxVertices/vs[1] {
			return nil, fmt.Errorf("graphspec: spec %q has more than %d adjacency entries", s.String(), maxVertices)
		}
		return graph.RandomRegular(vs[0], vs[1], r)
	}},
	"rregular": {random: true, build: func(s Spec, r *rng.Source) (graph.Graph, error) {
		vs, err := intPair(s, "N,D")
		if err != nil {
			return nil, err
		}
		if err := inRange(s, "N", vs[0], 3, maxVertices); err != nil {
			return nil, err
		}
		// The permutation seed is a fixed function of the build seed, so
		// (spec, seed) pins the instance like every other random family.
		return graph.ImplicitRandomRegular(vs[0], vs[1], r.Uint64())
	}},
	"gnp": {random: true, build: func(s Spec, r *rng.Source) (graph.Graph, error) {
		nStr, pStr, ok := strings.Cut(s.Args, ",")
		if !ok {
			return nil, fmt.Errorf("graphspec: gnp wants N,P")
		}
		n, err := atoiRange(s, nStr, "N", 1, maxVertices)
		if err != nil {
			return nil, err
		}
		p, err := strconv.ParseFloat(strings.TrimSpace(pStr), 64)
		if err != nil {
			return nil, fmt.Errorf("graphspec: bad probability %q", pStr)
		}
		return graph.GNP(n, p, r)
	}},
	"tree": {random: true, build: func(s Spec, r *rng.Source) (graph.Graph, error) {
		n, err := atoiRange(s, s.Args, "N", 1, maxVertices)
		if err != nil {
			return nil, err
		}
		return graph.RandomTree(n, r), nil
	}},
	"wcomplete": {build: func(s Spec, _ *rng.Source) (graph.Graph, error) {
		n, alpha, err := intFloatArgs(s, "N,ALPHA")
		if err != nil {
			return nil, err
		}
		return graph.WeightedComplete(n, alpha)
	}},
	"wcycle": {build: func(s Spec, _ *rng.Source) (graph.Graph, error) {
		n, bias, err := intFloatArgs(s, "N,B")
		if err != nil {
			return nil, err
		}
		return graph.WeightedCycle(n, bias)
	}},
}

// intFloatArgs splits an "INT,FLOAT" argument pair, the shape of the
// weighted-family parameters.
func intFloatArgs(s Spec, want string) (int, float64, error) {
	nStr, fStr, ok := strings.Cut(s.Args, ",")
	if !ok {
		return 0, 0, fmt.Errorf("graphspec: %s wants %s", s.Kind, want)
	}
	n, err := atoi(s, nStr)
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

// intArg adapts a single-integer CSR constructor whose precondition is
// lo <= n <= hi.
func intArg(ctor func(int) *graph.CSR, lo, hi int) func(Spec, *rng.Source) (graph.Graph, error) {
	return func(s Spec, _ *rng.Source) (graph.Graph, error) {
		n, err := atoiRange(s, s.Args, "N", lo, hi)
		if err != nil {
			return nil, err
		}
		return ctor(n), nil
	}
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

func gridArg(s Spec, _ *rng.Source) (graph.Graph, error) {
	sides, err := ints(s, s.Args, "x")
	if err != nil {
		return nil, err
	}
	torus := s.Kind == "torus"
	n := 1
	for _, side := range sides {
		if err := inRange(s, "side", side, 1, maxVertices); err != nil {
			return nil, err
		}
		if torus && side == 2 {
			return nil, fmt.Errorf("graphspec: torus side 2 in spec %q would create parallel edges", s.String())
		}
		if n > maxVertices/side {
			return nil, fmt.Errorf("graphspec: spec %q has more than %d vertices", s.String(), maxVertices)
		}
		n *= side
	}
	if torus {
		// The torus is the flagship implicit family: the spec's sides are
		// all Build needs, so no adjacency is ever constructed. With the
		// sides checked above, the only shapes the implicit backend
		// rejects are those it cannot express (no effective dimension, or
		// more than it supports), and those fall back to the CSR Grid.
		if g, err := graph.ImplicitTorus(sides); err == nil {
			return g, nil
		}
	}
	return graph.Grid(sides, torus), nil
}
