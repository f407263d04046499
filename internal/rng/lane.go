package rng

// LaneSource is the generator bank of the batched execution lane: one
// Source per lane slot. Slot j hosting trial i is seeded with trial i's
// seed, so it draws trial i's scalar stream (see the package doc): a
// kernel stepping the whole lane draws, slot by slot, what the scalar
// loop would draw for each trial.
//
// A LaneSource is not safe for concurrent use; each worker owns one.
type LaneSource struct {
	slots []Source
}

// Resize grows (or shrinks) the bank to width slots, reusing the backing
// array when possible. Slot states are unspecified until Seed.
func (l *LaneSource) Resize(width int) {
	if cap(l.slots) < width {
		l.slots = make([]Source, width)
	}
	l.slots = l.slots[:width]
}

// Seed resets slot j to the stream determined by seed, the stream
// Source.Seed(seed) starts.
func (l *LaneSource) Seed(j int, seed uint64) { l.slots[j].Seed(seed) }

// Uint64 returns the next 64 pseudo-random bits of slot j's stream.
func (l *LaneSource) Uint64(j int) uint64 { return l.slots[j].Uint64() }

// Slot returns slot j's Source, for the draws Uint64 does not cover (the
// bounded ones, under Source's laws).
func (l *LaneSource) Slot(j int) *Source { return &l.slots[j] }
