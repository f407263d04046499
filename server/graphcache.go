package server

// graphcache.go is the manager's cache of built graphs. Jobs on one spec
// share one graph: the first job to need it builds it, concurrent jobs
// on the same key wait for that build, and later jobs reuse the result
// until it ages out of a byte-budgeted, segmented LRU.

import (
	"container/list"
	"context"
	"strconv"
	"sync"

	"dispersion"
	"dispersion/graphspec"
)

// DefaultMaxGraphBytes is the graph byte bound applied when
// ManagerOptions.MaxGraphBytes is zero: 512 MiB.
const DefaultMaxGraphBytes = 512 << 20

// graphEntryOverhead is what a cached graph is charged on top of its
// graphspec.Footprint and the lengths of its key and name: the entry,
// its list element and map slot, and the graph's own struct, which
// Footprint leaves out. With short keys and names all of these take
// about 400 bytes on amd64, so a budget of B bytes holds at most
// B/graphEntryOverhead entries however small their graphs are.
const graphEntryOverhead = 1 << 10

// graphProbation bounds the graphs the cache keeps that no job has
// asked for since their build: at most graphProbation of them, in at
// most 1/graphProbation of the byte budget, besides the newest. A graph
// built for one job alone, as in a sweep over sizes or a random family
// drawn at a fresh seed, waits in probation and leaves it for newer
// ones, so such traffic keeps little however large the budget.
const graphProbation = 8

// graphCache is a single-flight, byte-budgeted, segmented LRU of built
// graphs. Built graphs are read-only, so every job on a key shares one.
//
// A new graph enters probation; the next job on its key, whether it
// joined the build in flight or came after, promotes it to the proven
// list. Beyond probation's bounds (graphProbation) its oldest graph is
// evicted. Beyond the byte budget, the oldest graph in probation is
// evicted first, then the least recently used proven one. Each kept
// graph is charged its measured footprint, the lengths of its key and
// name, and graphEntryOverhead. Build errors are never cached: the
// failed entry is dropped, and the next job on its key builds again.
type graphCache struct {
	max int64 // byte budget; every admitted spec's model fits it

	mu        sync.Mutex
	entries   map[string]*graphEntry // kept and in-flight entries
	probation list.List              // kept, not asked for again; most recent first
	proven    list.List              // kept and asked for again; most recently used first
	bytes     int64                  // charged bytes of the kept entries
	probBytes int64                  // charged bytes of the probation entries
	hits      int64
	misses    int64
	evictions int64
}

// graphEntry is one key's graph. g and err are written once, before done
// is closed; the other fields are guarded by graphCache.mu.
type graphEntry struct {
	key    string
	bytes  int64
	done   chan struct{}
	g      dispersion.Graph
	err    error
	elem   *list.Element // nil while the build is in flight
	wanted bool          // another job asked for the key after the first
}

func newGraphCache(maxBytes int64) *graphCache {
	return &graphCache{max: maxBytes, entries: map[string]*graphEntry{}}
}

// get returns spec's graph built from seed, exactly as
// graphspec.Spec.Build(seed) makes it, building it only when its key is
// neither kept nor in flight. The key is the spec's Canonical text, plus
// the seed for a random family. A caller waiting on another job's build
// stops waiting when ctx is done.
func (c *graphCache) get(ctx context.Context, spec graphspec.Spec, seed uint64) (dispersion.Graph, error) {
	canon, err := spec.Canonical()
	if err != nil {
		return nil, err
	}
	key := canon.String()
	if spec.Random() {
		key += "@" + strconv.FormatUint(seed, 10)
	}
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		switch {
		case e.elem == nil: // in flight: its build keeps it proven
		case e.wanted:
			c.proven.MoveToFront(e.elem)
		default:
			c.probation.Remove(e.elem)
			c.probBytes -= e.bytes
			e.elem = c.proven.PushFront(e)
		}
		e.wanted = true
		c.mu.Unlock()
		select {
		case <-e.done:
			return e.g, e.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	e := &graphEntry{key: key, done: make(chan struct{})}
	c.entries[key] = e
	c.misses++
	c.mu.Unlock()

	e.g, e.err = spec.Build(seed)

	c.mu.Lock()
	if e.err != nil {
		delete(c.entries, key)
	} else {
		e.bytes = graphspec.Footprint(e.g) + int64(len(key)+len(e.g.Name())) + graphEntryOverhead
		if e.wanted {
			e.elem = c.proven.PushFront(e)
		} else {
			e.elem = c.probation.PushFront(e)
			c.probBytes += e.bytes
		}
		c.bytes += e.bytes
		c.evict(e)
	}
	c.mu.Unlock()
	close(e.done)
	return e.g, e.err
}

// evict drops graphs beyond probation's bounds and the byte budget,
// never the graph just kept, so a graph whose model fills the whole
// budget still serves the jobs after its own. c.mu is held.
func (c *graphCache) evict(kept *graphEntry) {
	for {
		probVictim := c.probation.Len() > 0 && c.probation.Back().Value != kept
		l := &c.probation
		switch {
		case c.probation.Len() > graphProbation:
		case probVictim && (c.probBytes > c.max/graphProbation || c.bytes > c.max):
		case c.bytes > c.max && c.proven.Len() > 0 && c.proven.Back().Value != kept:
			l = &c.proven
		default:
			return
		}
		old := l.Remove(l.Back()).(*graphEntry)
		if l == &c.probation {
			c.probBytes -= old.bytes
		}
		delete(c.entries, old.key)
		c.bytes -= old.bytes
		c.evictions++
	}
}

// graphCacheStats is a point-in-time copy of the cache's counters.
type graphCacheStats struct {
	hits, misses, evictions, bytes, entries int64
}

func (c *graphCache) stats() graphCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return graphCacheStats{
		hits:      c.hits,
		misses:    c.misses,
		evictions: c.evictions,
		bytes:     c.bytes,
		entries:   int64(c.probation.Len() + c.proven.Len()),
	}
}
