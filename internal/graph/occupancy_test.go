package graph

import "testing"

// TestOccupancyTable exercises the table directly: set and get, reset,
// the packed word, and keys that collide on the last slot so their probes
// wrap past the end of the table.
func TestOccupancyTable(t *testing.T) {
	var tab OccupancyTable
	tab.Reset(64)
	for v := int32(0); v < 64; v++ {
		tab.Set(v, v*3)
	}
	for v := int32(0); v < 64; v++ {
		if got := tab.Get(v); got != v*3 {
			t.Fatalf("Get(%d) = %d, want %d", v, got, v*3)
		}
	}
	if got := tab.Get(1000); got != 0 {
		t.Fatalf("Get(absent) = %d, want 0", got)
	}
	tab.Reset(64)
	for v := int32(0); v < 64; v++ {
		if got := tab.Get(v); got != 0 {
			t.Fatalf("after Reset, Get(%d) = %d, want 0", v, got)
		}
	}
	// Flag and count coexist in one word.
	tab.Set(5, 7|OccupancyFull)
	if tab.Get(5)&^OccupancyFull != 7 || !tab.Full(5) || tab.Full(6) {
		t.Fatalf("packed word = %#x", tab.Get(5))
	}

	// Four keys whose home is the last slot: three occupy it and wrap to
	// slots 0 and 1, the fourth is looked up absent across the wrap.
	tab.Reset(4)
	var keys []int32
	for v := int32(0); len(keys) < 4; v++ {
		if tab.home(v) == tab.mask {
			keys = append(keys, v)
		}
	}
	for i, v := range keys[:3] {
		tab.Set(v, int32(i+1))
	}
	for i, v := range keys[:3] {
		if got, want := tab.slot(v), (tab.mask+uint64(i))&tab.mask; got != want {
			t.Errorf("key %d in slot %d, want %d", v, got, want)
		}
		if got := tab.Get(v); got != int32(i+1) {
			t.Errorf("Get(%d) = %d, want %d", v, got, i+1)
		}
	}
	if got := tab.Get(keys[3]); got != 0 {
		t.Errorf("Get(absent colliding key %d) = %d, want 0", keys[3], got)
	}
	// A zero word still marks its key present: a later key with the same
	// home must probe past it.
	tab.Set(keys[0], 0)
	if got := tab.Get(keys[1]); got != 2 {
		t.Errorf("after zeroing %d, Get(%d) = %d, want 2", keys[0], keys[1], got)
	}
}

// TestOccupancyTableProbeLength bounds the mean number of slots a lookup
// of a present key reads, on the structured key sets sparse runs settle:
// a BFS ball of 4,096 vertices from vertex 0, on torus:1024x1024 and on
// hypercube:20 (there, the 4,096 lowest-weight vertices), in a table sized
// for 4,096 keys. Linear probing under a uniform hash at load 1/4 reads
// about 1.17 slots a lookup; the bound allows structured keys 1.5.
func TestOccupancyTableProbeLength(t *testing.T) {
	const keys, bound = 4096, 1.5
	torus, err := ImplicitTorus([]int{1024, 1024})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Implicit{torus, ImplicitHypercube(20)} {
		var tab OccupancyTable
		tab.Reset(keys)
		ball := bfsBall(g, keys)
		for _, v := range ball {
			tab.Set(v, OccupancyFull)
		}
		var probes uint64
		for _, v := range ball {
			probes += (tab.slot(v)-tab.home(v))&tab.mask + 1
		}
		mean := float64(probes) / float64(len(ball))
		t.Logf("%s: mean probe length %.3f over %d keys in %d slots", g.Name(), mean, len(ball), len(tab.slots))
		if mean > bound {
			t.Errorf("%s: mean probe length %.3f, want <= %v", g.Name(), mean, bound)
		}
	}
}

// bfsBall returns the first k vertices a breadth-first search from vertex
// 0 reaches, visiting neighbours in sorted order.
func bfsBall(g *Implicit, k int) []int32 {
	seen := map[int32]bool{0: true}
	ball := []int32{0}
	for i := 0; len(ball) < k; i++ {
		v := ball[i]
		for j := int32(0); j < g.kernel.degree(v) && len(ball) < k; j++ {
			if u := g.kernel.nth(v, j); !seen[u] {
				seen[u] = true
				ball = append(ball, u)
			}
		}
	}
	return ball
}
