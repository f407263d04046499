package exact

import (
	"fmt"
	"math/bits"

	"dispersion/internal/graph"
)

// This file extends the subset DP to the registered variant workloads: the
// Proposition A.1 modified settle rules (geometric acceptance,
// step-threshold settlement), lazy walks, fewer particles, and random
// origins. The structural change versus the classic solver is that
// settlement is resolved on *standing* vertices rather than on arrivals: a
// rule may veto (geom, threshold) or grant (a vacant start) settlement at
// step zero, so the absorbing chain runs over all n vertices with a
// per-visit absorption probability instead of over the occupied set only.
// For the standard rule the two formulations coincide whenever the start
// is occupied.

// RuleKind names a settlement rule of the rule-aware solvers.
type RuleKind int

// The settlement rules the solvers understand, mirroring the registered
// processes: the standard rule settles at the first vacant standing
// vertex; RuleGeom settles on a vacant standing vertex with probability Q
// per visit; RuleThreshold settles at the first vacant standing vertex
// from step T on.
const (
	RuleStandard RuleKind = iota
	RuleGeom
	RuleThreshold
)

// Rule describes the walk law and settlement rule of a rule-aware solve.
// The zero Rule is the standard Sequential process.
type Rule struct {
	// Kind selects the settlement rule.
	Kind RuleKind
	// Lazy makes the walk lazy: each step stays put with probability 1/2.
	Lazy bool
	// Q is RuleGeom's per-visit settle probability, in (0, 1].
	Q float64
	// T is RuleThreshold's minimum step count before settlement.
	T int
}

// absorb returns the probability that a particle standing on vertex v at
// step t settles there, given the occupied set s.
func (rule Rule) absorb(v int, t int, s uint32) float64 {
	if s&(1<<uint(v)) != 0 {
		return 0
	}
	switch rule.Kind {
	case RuleGeom:
		return rule.Q
	case RuleThreshold:
		if t < rule.T {
			return 0
		}
		return 1
	default:
		return 1
	}
}

// validate rejects rule parameters the registered processes would reject.
func (rule Rule) validate() error {
	switch rule.Kind {
	case RuleGeom:
		if rule.Q <= 0 || rule.Q > 1 {
			return fmt.Errorf("exact: geometric settle probability %v (want (0,1])", rule.Q)
		}
	case RuleThreshold:
		if rule.T < 0 {
			return fmt.Errorf("exact: settle threshold %d (want >= 0)", rule.T)
		}
	}
	return nil
}

// settleIterCap bounds the standing-time iteration of the rule solvers;
// the surviving mass decays geometrically on connected graphs with at
// least one vacant vertex, so the cap is never reached in practice.
const settleIterCap = 1 << 20

// settleTol is the surviving-mass threshold below which a rule solve is
// considered converged.
const settleTol = 1e-14

// SettleLaw returns the settlement law of one particle walking from start
// with occupied set s under the rule: measure[v] is the probability it
// settles at vertex v, and mean its expected step count. The walk runs on
// the whole graph with per-standing-visit absorption, so a vacant start
// may settle at step zero. It errors when s leaves no vertex to settle on.
func SettleLaw(g *graph.CSR, start int, s uint32, rule Rule) ([]float64, float64, error) {
	n := g.N()
	if err := checkRuleSolve(g, start, s, rule); err != nil {
		return nil, 0, err
	}
	measure := make([]float64, n)
	cur := make([]float64, n)
	next := make([]float64, n)
	cur[start] = 1
	var mean float64
	for t := 0; t < settleIterCap; t++ {
		alive := absorbStanding(cur, measure, s, rule, t)
		if alive < settleTol {
			return measure, mean, nil
		}
		// Every surviving unit of mass performs at least one more step:
		// E[steps] = sum over t of P(steps > t).
		mean += alive
		stepFull(g, cur, next, rule.Lazy)
		cur, next = next, cur
	}
	return nil, 0, fmt.Errorf("exact: rule solve did not converge (alive mass %g)", sum(cur))
}

// SettleCDF returns, for a particle walking from start with occupied set s
// under the rule, the joint settlement law truncated at horizon T:
// out[v][t] = P(settles at v within <= t steps), for t = 0..T. Unlike the
// arrival-absorbed Sequential.SettleCDF, entry t=0 can be positive (a
// vacant start settles with zero steps).
func SettleCDF(g *graph.CSR, start int, s uint32, rule Rule, T int) ([][]float64, error) {
	n := g.N()
	if err := checkRuleSolve(g, start, s, rule); err != nil {
		return nil, err
	}
	out := make([][]float64, n)
	for v := range out {
		out[v] = make([]float64, T+1)
	}
	absorbed := make([]float64, n)
	cur := make([]float64, n)
	next := make([]float64, n)
	cur[start] = 1
	for t := 0; t <= T; t++ {
		absorbStanding(cur, absorbed, s, rule, t)
		for v := 0; v < n; v++ {
			out[v][t] = absorbed[v]
		}
		if t < T {
			stepFull(g, cur, next, rule.Lazy)
			cur, next = next, cur
		}
	}
	return out, nil
}

// checkRuleSolve validates the shared inputs of the rule solvers.
func checkRuleSolve(g *graph.CSR, start int, s uint32, rule Rule) error {
	n := g.N()
	if n > maxExactN {
		return fmt.Errorf("exact: n = %d exceeds subset-DP limit %d", n, maxExactN)
	}
	if start < 0 || start >= n {
		return fmt.Errorf("exact: start %d out of range", start)
	}
	if !g.IsConnected() {
		return fmt.Errorf("exact: graph not connected")
	}
	if err := rule.validate(); err != nil {
		return err
	}
	if s == uint32(1)<<uint(n)-1 {
		return fmt.Errorf("exact: occupied set leaves no vertex to settle on")
	}
	return nil
}

// absorbStanding applies one standing-time absorption pass: mass at each
// vertex settles with the rule's per-visit probability, accumulating into
// absorbed. It returns the surviving mass.
func absorbStanding(cur, absorbed []float64, s uint32, rule Rule, t int) float64 {
	var alive float64
	for v := range cur {
		if cur[v] == 0 {
			continue
		}
		if a := rule.absorb(v, t, s); a > 0 {
			absorbed[v] += a * cur[v]
			cur[v] -= a * cur[v]
		}
		alive += cur[v]
	}
	return alive
}

// stepFull advances one walk step of the distribution over the whole
// graph (no absorption; that happens on standing).
func stepFull(g *graph.CSR, cur, next []float64, lazy bool) {
	for i := range next {
		next[i] = 0
	}
	for u := range cur {
		share := cur[u]
		if share == 0 {
			continue
		}
		if lazy {
			next[u] += share / 2
			share /= 2
		}
		share /= float64(g.Degree(u))
		for _, v := range g.Neighbors(u) {
			next[v] += share
		}
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// SeqVariant describes a Sequential-process variant for the exact drivers
// below: a settle rule plus the particle-count and origin-policy options.
// The zero SeqVariant is the standard full process from a fixed origin.
type SeqVariant struct {
	// Rule is the walk law and settlement rule.
	Rule Rule
	// Particles is the number of particles to disperse; zero means n.
	Particles int
	// RandomOrigins starts every particle at an independent uniform
	// vertex instead of the common origin.
	RandomOrigins bool
}

// particles resolves the particle count against the graph size.
func (v SeqVariant) particles(n int) (int, error) {
	k := v.Particles
	if k == 0 {
		k = n
	}
	if k < 1 || k > n {
		return 0, fmt.Errorf("exact: %d particles on %d vertices (want 1..n)", k, n)
	}
	return k, nil
}

// starts returns the (start, weight) mixture of the variant's origin
// policy.
func (v SeqVariant) starts(origin, n int) ([]int, float64) {
	if !v.RandomOrigins {
		return []int{origin}, 1
	}
	us := make([]int, n)
	for u := range us {
		us[u] = u
	}
	return us, 1 / float64(n)
}

// SeqExpectedTotalSteps returns the exact E[total steps] of the
// Sequential-process variant: a forward DP over occupied sets where each
// transition uses the rule-aware settlement law. With the zero variant it
// reproduces Sequential.ExpectedTotalSteps.
func SeqExpectedTotalSteps(g *graph.CSR, origin int, v SeqVariant) (float64, error) {
	n := g.N()
	k, err := v.particles(n)
	if err != nil {
		return 0, err
	}
	starts, w := v.starts(origin, n)
	laws := newLawCache(g, v.Rule)
	// prob[s] = probability the occupied-set trajectory visits s. The
	// empty set is the state before the first particle: rules may send
	// even particle 0 walking, and under random origins its start varies.
	prob := map[uint32]float64{0: 1}
	var total float64
	for _, s := range allSubsetsByPopcount(n) {
		p, ok := prob[s]
		if !ok || bits.OnesCount32(s) >= k {
			continue
		}
		for _, u := range starts {
			measure, mean, err := laws.law(u, s)
			if err != nil {
				return 0, err
			}
			total += p * w * mean
			for t := 0; t < n; t++ {
				if measure[t] > 0 {
					prob[s|1<<uint(t)] += p * w * measure[t]
				}
			}
		}
	}
	return total, nil
}

// SeqDispersionCDF returns the exact CDF of the variant's dispersion time:
// cdf[t] = P(max per-particle steps <= t) for t = 0..T, by the same
// occupied-set factorisation as Sequential.DispersionCDF with rule-aware
// per-set settlement CDFs.
func SeqDispersionCDF(g *graph.CSR, origin int, v SeqVariant, T int) ([]float64, error) {
	n := g.N()
	k, err := v.particles(n)
	if err != nil {
		return nil, err
	}
	starts, w := v.starts(origin, n)
	cdf := make([]float64, T+1)
	// f[s][t] = P(trajectory reaches s AND every walk so far took <= t).
	f := map[uint32][]float64{0: ones(T + 1)}
	for _, s := range allSubsetsByPopcount(n) {
		fs, ok := f[s]
		if !ok {
			continue
		}
		if bits.OnesCount32(s) == k {
			for t := 0; t <= T; t++ {
				cdf[t] += fs[t]
			}
			continue
		}
		for _, u := range starts {
			settle, err := SettleCDF(g, u, s, v.Rule, T)
			if err != nil {
				return nil, err
			}
			for tgt := 0; tgt < n; tgt++ {
				if s&(1<<uint(tgt)) != 0 || settle[tgt][T] == 0 {
					continue
				}
				nxt := f[s|1<<uint(tgt)]
				if nxt == nil {
					nxt = make([]float64, T+1)
					f[s|1<<uint(tgt)] = nxt
				}
				for t := 0; t <= T; t++ {
					nxt[t] += w * fs[t] * settle[tgt][t]
				}
			}
		}
	}
	return cdf, nil
}

// lawCache memoizes SettleLaw per (start, occupied set): the random-origin
// DPs revisit the same pair once per predecessor state.
type lawCache struct {
	g    *graph.CSR
	rule Rule
	m    map[uint64]cachedLaw
}

// cachedLaw is one memoized settlement law.
type cachedLaw struct {
	measure []float64
	mean    float64
}

func newLawCache(g *graph.CSR, rule Rule) *lawCache {
	return &lawCache{g: g, rule: rule, m: map[uint64]cachedLaw{}}
}

// law returns the memoized settlement law from start given occupied set s.
func (c *lawCache) law(start int, s uint32) ([]float64, float64, error) {
	key := uint64(start)<<32 | uint64(s)
	if l, ok := c.m[key]; ok {
		return l.measure, l.mean, nil
	}
	measure, mean, err := SettleLaw(c.g, start, s, c.rule)
	if err != nil {
		return nil, 0, err
	}
	c.m[key] = cachedLaw{measure: measure, mean: mean}
	return measure, mean, nil
}

// allSubsetsByPopcount returns every subset of [0,n) ordered by increasing
// cardinality, the traversal order of the variant DPs (which, unlike the
// classic solver, must visit sets not containing the origin).
func allSubsetsByPopcount(n int) []uint32 {
	out := make([]uint32, 0, 1<<uint(n))
	buckets := make([][]uint32, n+1)
	for s := uint32(0); s < 1<<uint(n); s++ {
		pc := popcount(s)
		buckets[pc] = append(buckets[pc], s)
	}
	for _, b := range buckets {
		out = append(out, b...)
	}
	return out
}

// ones returns a length-n vector of ones.
func ones(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}
