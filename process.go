package dispersion

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"dispersion/internal/core"
)

// Process is one dispersion-process variant. Implementations are
// registered under a canonical name (plus aliases) and looked up with
// Lookup; the built-in registry covers the paper's five processes and
// their lazy variants.
type Process interface {
	// Name is the canonical registry name, e.g. "sequential".
	Name() string
	// Continuous reports whether results carry a real-valued clock
	// (Result.Time / Result.SettleTimes).
	Continuous() bool
	// Run executes one realization on g from origin, drawing randomness
	// from r. It must be deterministic given (g, origin, r state, opts).
	// The engine hands every trial a source it may retain.
	Run(g Graph, origin int, r *Source, opts ...Option) (*Result, error)
}

var (
	registryMu sync.RWMutex
	registry   = map[string]Process{}
	canonical  []string
)

// Register adds a process to the registry under its canonical name and
// any aliases. It panics on a duplicate name, mirroring database/sql; use
// RegisterErr to handle collisions programmatically.
func Register(p Process, aliases ...string) {
	if err := RegisterErr(p, aliases...); err != nil {
		panic(err)
	}
}

// RegisterErr adds a process to the registry under its canonical name and
// any aliases, reporting a descriptive error instead of panicking when any
// of the names is already taken (or repeated in the arguments). On error
// the registry is left untouched: no subset of the names is registered.
func RegisterErr(p Process, aliases ...string) error {
	names := append([]string{p.Name()}, aliases...)
	registryMu.Lock()
	defer registryMu.Unlock()
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		if _, dup := registry[name]; dup {
			return fmt.Errorf("dispersion: process name %q already registered (process %q)",
				name, registry[name].Name())
		}
		if seen[name] {
			return fmt.Errorf("dispersion: process %q repeats the name %q", p.Name(), name)
		}
		seen[name] = true
	}
	for _, name := range names {
		registry[name] = p
	}
	canonical = append(canonical, p.Name())
	sort.Strings(canonical)
	return nil
}

// Lookup returns the process registered under name (canonical or alias).
func Lookup(name string) (Process, error) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	if p, ok := registry[name]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("dispersion: unknown process %q (want one of %s)",
		name, strings.Join(canonical, "|"))
}

// Processes returns the canonical names of all registered processes in
// sorted order.
func Processes() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return append([]string(nil), canonical...)
}

// coreProcess adapts one internal *Into process function to the Process
// interface. forced options (e.g. laziness for the lazy variants) are
// applied before the caller's options. The single runInto entry point
// serves both the one-shot Run below and the engine's zero-allocation
// hot path, which threads a per-worker Scratch and a recycled result cell
// through it.
type coreProcess struct {
	name       string
	continuous bool
	forced     []Option
	runInto    func(g Graph, origin int, opt core.Options, r *Source, s *core.Scratch, ct *core.CTResult) error
	// lane names the process's settlement law, under which a batched job
	// is validated; LaneNone (the zero value) marks a process WithBatch
	// rejects. Only LaneStandard runs a lane (core.LaneWidth); a batched
	// job under any other law is its unbatched twin.
	lane core.LaneVariant
}

func (p *coreProcess) Name() string     { return p.name }
func (p *coreProcess) Continuous() bool { return p.continuous }

func (p *coreProcess) Run(g Graph, origin int, r *Source, opts ...Option) (*Result, error) {
	opt := buildOptions(append(append([]Option(nil), p.forced...), opts...))
	if opt.Batch != 0 {
		// A one-shot batched run is the unbatched run on r (one stream
		// law), once it passes the engine's batched checks.
		if _, err := core.LaneWidth(g, origin, opt, p.lane, 1, 1); err != nil {
			return nil, err
		}
	}
	var ct core.CTResult
	if err := p.runInto(g, origin, opt, r, nil, &ct); err != nil {
		return nil, err
	}
	res := new(Result)
	res.setCore(&ct, p.name, p.continuous)
	return res, nil
}

// discreteInto adapts a discrete-time internal process to the shared
// continuous-time result layout (the clock fields stay untouched and are
// masked off by setCore).
func discreteInto(f func(Graph, int, core.Options, *Source, *core.Scratch, *core.Result) error) func(Graph, int, core.Options, *Source, *core.Scratch, *core.CTResult) error {
	return func(g Graph, origin int, opt core.Options, r *Source, s *core.Scratch, ct *core.CTResult) error {
		return f(g, origin, opt, r, s, &ct.Result)
	}
}

func init() {
	variants := []struct {
		name       string
		aliases    []string
		continuous bool
		runInto    func(Graph, int, core.Options, *Source, *core.Scratch, *core.CTResult) error
		lane       core.LaneVariant
	}{
		{"sequential", []string{"seq"}, false, discreteInto(core.SequentialInto), core.LaneStandard},
		{"parallel", []string{"par"}, false, discreteInto(core.ParallelInto), core.LaneNone},
		{"uniform", []string{"unif"}, false, discreteInto(core.UniformInto), core.LaneNone},
		{"ct-uniform", []string{"ctu"}, true, core.CTUniformInto, core.LaneNone},
		{"ct-sequential", []string{"ctseq"}, true, core.CTSequentialInto, core.LaneNone},
		// The Proposition A.1 modified settle rules, parameterized by
		// WithSettleParam, and the capacity-c (k-particles-per-vertex)
		// load-balancing generalization, parameterized by WithCapacity.
		{"sequential-geom", []string{"geom"}, false, discreteInto(core.SequentialGeomInto), core.LaneGeom},
		{"sequential-threshold", []string{"thresh"}, false, discreteInto(core.SequentialThresholdInto), core.LaneThreshold},
		{"capacity", []string{"cap"}, false, discreteInto(core.CapacitySequentialInto), core.LaneCapacity},
		{"capacity-parallel", []string{"cap-par"}, false, discreteInto(core.CapacityParallelInto), core.LaneNone},
	}
	for _, v := range variants {
		Register(&coreProcess{
			name:       v.name,
			continuous: v.continuous,
			runInto:    v.runInto,
			lane:       v.lane,
		}, v.aliases...)
		// The lazy variants of Theorem 4.3: the same process with the
		// laziness option forced on.
		lazyAliases := make([]string, len(v.aliases))
		for i, a := range v.aliases {
			lazyAliases[i] = "lazy-" + a
		}
		Register(&coreProcess{
			name:       "lazy-" + v.name,
			continuous: v.continuous,
			forced:     []Option{WithLazy()},
			runInto:    v.runInto,
			lane:       v.lane,
		}, lazyAliases...)
	}
}
