// Package graph provides the finite-graph substrate for the dispersion
// simulator. The simulation stack sees graphs only through the narrow
// Graph interface — size, degree, step kernel, connectivity — which has
// two backends:
//
//   - CSR, a compact compressed-sparse-row adjacency representation with
//     constructors for every graph family analysed in the paper and the
//     traversal utilities (BFS, connectivity, bipartiteness) the
//     analytics need. Memory is O(n·d).
//   - Implicit, an adjacency-free backend for generated families (d-dim
//     torus, circulant, random-regular via seeded permutation
//     composition, and the closed-form families) whose kernel, degree and
//     connectivity are computed analytically. Memory is O(1), opening
//     vertex counts that could never hold a CSR build in RAM.
//
// Vertices are integers in [0, N). Both representations are immutable
// after construction so graphs can be shared freely across goroutines.
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// Graph is the narrow interface the dispersion processes walk on: the
// vertex count, per-vertex degree, the step kernel selected at build
// time, and the one-time connectivity predicate. Everything a simulation
// touches per trial goes through these five methods, so backends are free
// to answer them from a CSR adjacency or from pure arithmetic.
type Graph interface {
	// N returns the number of vertices.
	N() int
	// Name returns the human-readable family label.
	Name() string
	// Degree returns the degree of vertex v.
	Degree(v int) int
	// Kernel returns the step kernel selected at construction time. Hot
	// loops should hoist it out of the loop body.
	Kernel() Kernel
	// IsConnected reports whether the graph is connected. The answer is
	// computed (or known analytically) at construction time, so the call
	// is free in per-trial input validation.
	IsConnected() bool
	// HasEdge reports whether {u, v} is an edge. Recorded-trajectory
	// validation uses it (core.Result.Check).
	HasEdge(u, v int) bool
}

var (
	_ Graph = (*CSR)(nil)
	_ Graph = (*Implicit)(nil)
)

// CSR is an undirected, unweighted graph in CSR form. The neighbour list
// of vertex v is adj[offsets[v]:offsets[v+1]]. Parallel edges and
// self-loops are rejected at construction; all graphs in the paper are
// simple.
type CSR struct {
	name    string
	offsets []int32
	adj     []int32
	// kernel is the step engine selected for this adjacency at Build time
	// (see Kernel); connected caches the one-time BFS connectivity check
	// so per-trial input validation never re-traverses the graph.
	kernel    Kernel
	connected bool
}

// N returns the number of vertices.
func (g *CSR) N() int { return len(g.offsets) - 1 }

// M returns the number of undirected edges.
func (g *CSR) M() int { return len(g.adj) / 2 }

// Name returns the human-readable family label given at construction.
func (g *CSR) Name() string { return g.name }

// Degree returns the degree of vertex v.
func (g *CSR) Degree(v int) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the neighbour list of v. The returned slice aliases the
// graph's internal storage and must not be modified.
func (g *CSR) Neighbors(v int) []int32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// MaxDegree returns the maximum vertex degree.
func (g *CSR) MaxDegree() int {
	max := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// MinDegree returns the minimum vertex degree.
func (g *CSR) MinDegree() int {
	if g.N() == 0 {
		return 0
	}
	min := g.Degree(0)
	for v := 1; v < g.N(); v++ {
		if d := g.Degree(v); d < min {
			min = d
		}
	}
	return min
}

// IsRegular reports whether every vertex has the same degree.
func (g *CSR) IsRegular() bool {
	return g.N() == 0 || g.MaxDegree() == g.MinDegree()
}

// HasEdge reports whether {u, v} is an edge, by binary search over the
// sorted neighbour list of the lower-degree endpoint.
func (g *CSR) HasEdge(u, v int) bool {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	ns := g.Neighbors(u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= int32(v) })
	return i < len(ns) && ns[i] == int32(v)
}

// Builder accumulates edges and produces an immutable CSR. Duplicate
// edges and self-loops cause Build to fail, which keeps random generators
// honest about producing simple graphs.
type Builder struct {
	n     int
	name  string
	edges [][2]int32
	// hint, when non-nil, resolves the kernel the builder's caller knows
	// to be correct for the adjacency it is constructing — the canonical
	// family constructors set it so Build skips detectKernel's O(n·d)
	// closed-form verification sweep. The hint is trusted, not verified:
	// only constructors that emit the canonical labelling may set it.
	// Hand-built graphs have no hint and keep the full structural
	// detection.
	hint func(*CSR) Kernel
}

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(name string, n int) *Builder {
	return &Builder{n: n, name: name}
}

// AddEdge records the undirected edge {u, v}. Ordering of the endpoints is
// irrelevant. Validity is checked at Build time.
func (b *Builder) AddEdge(u, v int) {
	b.edges = append(b.edges, [2]int32{int32(u), int32(v)})
}

// Build validates the accumulated edges and returns the CSR graph.
func (b *Builder) Build() (*CSR, error) {
	if b.n <= 0 {
		return nil, errors.New("graph: builder needs at least one vertex")
	}
	deg := make([]int32, b.n)
	for _, e := range b.edges {
		u, v := e[0], e[1]
		if u == v {
			return nil, fmt.Errorf("graph: self-loop at vertex %d", u)
		}
		if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
			return nil, fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, b.n)
		}
		deg[u]++
		deg[v]++
	}
	offsets := make([]int32, b.n+1)
	for v := 0; v < b.n; v++ {
		offsets[v+1] = offsets[v] + deg[v]
	}
	adj := make([]int32, offsets[b.n])
	cursor := make([]int32, b.n)
	copy(cursor, offsets[:b.n])
	for _, e := range b.edges {
		u, v := e[0], e[1]
		adj[cursor[u]] = v
		cursor[u]++
		adj[cursor[v]] = u
		cursor[v]++
	}
	g := &CSR{name: b.name, offsets: offsets, adj: adj}
	// Sort each neighbour list and reject duplicates (parallel edges).
	for v := 0; v < b.n; v++ {
		ns := g.adj[offsets[v]:offsets[v+1]]
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		for i := 1; i < len(ns); i++ {
			if ns[i] == ns[i-1] {
				return nil, fmt.Errorf("graph: duplicate edge {%d,%d}", v, ns[i])
			}
		}
	}
	g.connected = bfsConnected(g)
	if b.hint != nil {
		g.kernel = b.hint(g)
	} else {
		g.kernel = detectKernel(g)
	}
	return g, nil
}

// MustBuild is Build for statically correct constructions; it panics on
// error and is used by the deterministic family constructors whose inputs
// are validated up front.
func (b *Builder) MustBuild() *CSR {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// BFS returns the vector of hop distances from src, with -1 for vertices
// unreachable from src.
func (g *CSR) BFS(src int) []int32 {
	dist := make([]int32, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int32, 0, g.N())
	queue = append(queue, int32(src))
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(int(u)) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// IsConnected reports whether the graph is connected. The answer is
// computed once at Build time, so the call is free in per-trial input
// validation.
func (g *CSR) IsConnected() bool { return g.connected }

// bfsConnected is the one-time Build-side connectivity traversal.
func bfsConnected(g *CSR) bool {
	if g.N() == 0 {
		return false
	}
	for _, d := range g.BFS(0) {
		if d < 0 {
			return false
		}
	}
	return true
}

// IsBipartite reports whether the graph is bipartite (2-colourable). The
// simple random walk is periodic exactly on bipartite graphs, which is why
// the paper's set-hitting bounds switch to lazy walks.
func (g *CSR) IsBipartite() bool {
	color := make([]int8, g.N())
	for s := 0; s < g.N(); s++ {
		if color[s] != 0 {
			continue
		}
		color[s] = 1
		queue := []int32{int32(s)}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.Neighbors(int(u)) {
				if color[v] == 0 {
					color[v] = -color[u]
					queue = append(queue, v)
				} else if color[v] == color[u] {
					return false
				}
			}
		}
	}
	return true
}

// Diameter returns the graph diameter via BFS from every vertex. Intended
// for the moderate sizes used in experiments; O(N·M) time.
func (g *CSR) Diameter() int {
	diam := int32(0)
	for v := 0; v < g.N(); v++ {
		for _, d := range g.BFS(v) {
			if d > diam {
				diam = d
			}
		}
	}
	return int(diam)
}

// DegreeSum returns the sum of degrees (2·M); it is the normaliser of the
// stationary distribution π(v) = deg(v) / DegreeSum.
func (g *CSR) DegreeSum() int { return len(g.adj) }
