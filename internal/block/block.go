// Package block implements the paper's block representation of IDLA
// process histories and the Cut & Paste machinery of Section 4: the CP
// transform, Algorithm 1 (StP: sequential-to-parallel) and Algorithm 2
// (PtS: parallel-to-sequential), together with validity checkers for the
// paper's properties (2), (3) and (4). These bijections are what couple
// the dispersion times of the Sequential and Parallel processes (Theorems
// 4.1 and 4.2).
//
// A block is an irregular 2-dimensional array L with one row per particle;
// L(i, t) is the vertex occupied by particle i after its t-th jump, so row
// i has length ρ_i + 1 where ρ_i is the particle's step count. Property
// (2) — the row endpoints are distinct and cover V — is the invariant every
// transform preserves.
package block

import "fmt"

// Block is an IDLA history. Rows[i][t] is the paper's L(i, t).
type Block struct {
	Rows [][]int32
}

// FromTrajectories builds a block from recorded per-particle trajectories
// (one row per particle, rows deep-copied). It accepts the Trajectories
// field of any result type that records them; nil means the run was not
// recorded.
func FromTrajectories(trajs [][]int32) (*Block, error) {
	if trajs == nil {
		return nil, fmt.Errorf("block: result has no recorded trajectories")
	}
	rows := make([][]int32, len(trajs))
	for i, traj := range trajs {
		rows[i] = append([]int32(nil), traj...)
	}
	return &Block{Rows: rows}, nil
}

// Clone returns a deep copy.
func (b *Block) Clone() *Block {
	nb := &Block{Rows: make([][]int32, len(b.Rows))}
	for i, row := range b.Rows {
		nb.Rows[i] = append([]int32(nil), row...)
	}
	return nb
}

// TotalLength returns m(L) = Σ ρ_i, the total number of moves recorded.
func (b *Block) TotalLength() int64 {
	var m int64
	for _, row := range b.Rows {
		m += int64(len(row) - 1)
	}
	return m
}

// LongestRow returns max_i ρ_i, the dispersion statistic of the block.
func (b *Block) LongestRow() int64 {
	var best int64
	for _, row := range b.Rows {
		if l := int64(len(row) - 1); l > best {
			best = l
		}
	}
	return best
}

// Equal reports whether two blocks have identical rows.
func (b *Block) Equal(o *Block) bool {
	if len(b.Rows) != len(o.Rows) {
		return false
	}
	for i := range b.Rows {
		if len(b.Rows[i]) != len(o.Rows[i]) {
			return false
		}
		for t := range b.Rows[i] {
			if b.Rows[i][t] != o.Rows[i][t] {
				return false
			}
		}
	}
	return true
}

// endpointIndex builds the map from endpoint vertex to owning row required
// by CP. It fails if property (2) does not hold (duplicate endpoints).
func (b *Block) endpointIndex() ([]int32, error) {
	n := len(b.Rows)
	end := make([]int32, n)
	for i := range end {
		end[i] = -1
	}
	for i, row := range b.Rows {
		v := row[len(row)-1]
		if int(v) >= n || v < 0 {
			return nil, fmt.Errorf("block: endpoint %d out of vertex range [0,%d)", v, n)
		}
		if end[v] >= 0 {
			return nil, fmt.Errorf("block: rows %d and %d share endpoint %d (property 2 violated)", end[v], i, v)
		}
		end[v] = int32(i)
	}
	return end, nil
}

// CheckEndpoints verifies the paper's property (2): the final cells of the
// rows are pairwise distinct, hence cover V when the block has n = |V|
// rows.
func (b *Block) CheckEndpoints() error {
	_, err := b.endpointIndex()
	return err
}

// cp applies the Cut & Paste transform CP_(i,t): the cells
// (i, t+1..ρ_i) are cut and pasted after the unique row k whose endpoint
// equals L(i, t). end is the endpoint index, which cp keeps current.
// CP_(i,ρ_i) is the identity.
func (b *Block) cp(i, t int, end []int32) error {
	row := b.Rows[i]
	if t < 0 || t >= len(row) {
		return fmt.Errorf("block: CP position (%d,%d) out of range", i, t)
	}
	if t == len(row)-1 {
		return nil // identity
	}
	v := row[t]
	k := end[v]
	if k < 0 {
		return fmt.Errorf("block: no row ends at vertex %d", v)
	}
	if int(k) == i {
		return fmt.Errorf("block: CP_(%d,%d) would paste a row onto itself", i, t)
	}
	oldEndI := row[len(row)-1]
	b.Rows[k] = append(b.Rows[k], row[t+1:]...)
	b.Rows[i] = row[:t+1]
	// Endpoints swap between rows i and k (property (2) is invariant).
	end[oldEndI] = k
	end[v] = int32(i)
	return nil
}

// CP applies a single public Cut & Paste transform and returns the
// transformed block, leaving the receiver untouched. Exposed for the
// worked example in the paper and for exploratory use; the algorithms use
// the in-place internal version.
func (b *Block) CP(i, t int) (*Block, error) {
	nb := b.Clone()
	end, err := nb.endpointIndex()
	if err != nil {
		return nil, err
	}
	if err := nb.cp(i, t, end); err != nil {
		return nil, err
	}
	return nb, nil
}
