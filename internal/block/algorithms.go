package block

import "fmt"

// IsSequential verifies the paper's property (3): reading the block in
// sequential order <S (row by row), the first occurrence of every vertex
// value is the final cell of its row. Together with property (2) this
// characterises realizations of the Sequential-IDLA.
func (b *Block) IsSequential() bool {
	if b.CheckEndpoints() != nil {
		return false
	}
	n := len(b.Rows)
	seen := make([]bool, n)
	for _, row := range b.Rows {
		for t, v := range row {
			if !seen[v] {
				seen[v] = true
				if t != len(row)-1 {
					return false
				}
			}
		}
	}
	return true
}

// IsParallel verifies the paper's property (4): reading the block in
// parallel order <P (column by column), the first occurrence of every
// vertex value is the final cell of its row.
func (b *Block) IsParallel() bool {
	if b.CheckEndpoints() != nil {
		return false
	}
	n := len(b.Rows)
	seen := make([]bool, n)
	maxLen := 0
	for _, row := range b.Rows {
		if len(row) > maxLen {
			maxLen = len(row)
		}
	}
	for t := 0; t < maxLen; t++ {
		for _, row := range b.Rows {
			if t >= len(row) {
				continue
			}
			v := row[t]
			if !seen[v] {
				seen[v] = true
				if t != len(row)-1 {
					return false
				}
			}
		}
	}
	return true
}

// StP is Algorithm 1: it transforms a sequential block into the parallel
// block of the Cut & Paste bijection, in place. The pointer sweeps the
// block in parallel order; the first time each vertex value is read, a
// Cut & Paste transform is applied at that cell.
func (b *Block) StP() error {
	n := len(b.Rows)
	end, err := b.endpointIndex()
	if err != nil {
		return err
	}
	seen := make([]bool, n)
	count := 0
	for t := 0; count < n; t++ {
		progressed := false
		for i := 0; i < n; i++ {
			if t >= len(b.Rows[i]) {
				continue
			}
			progressed = true
			v := b.Rows[i][t]
			if !seen[v] {
				seen[v] = true
				count++
				if err := b.cp(i, t, end); err != nil {
					return err
				}
			}
		}
		if !progressed {
			return fmt.Errorf("block: StP ran past all rows with %d of %d vertices seen", count, n)
		}
	}
	return nil
}

// PtS is Algorithm 2: it transforms a parallel block into the sequential
// block of the bijection, in place. It is PtSOrder with the identity row
// order.
func (b *Block) PtS() error {
	order := make([]int, len(b.Rows))
	for i := range order {
		order[i] = i
	}
	return b.PtSOrder(order)
}

// PtSOrder runs Algorithm 2 reading rows in the given order: row order[0]
// first, then order[1], and so on. This is the σ-twisted variant used in
// the proof of Theorem 4.2, where σ is a uniform permutation fixing row 0.
// The scan of each row stops at the first unseen vertex value, where a
// Cut & Paste is applied and the row is finalised.
func (b *Block) PtSOrder(order []int) error {
	n := len(b.Rows)
	if len(order) != n {
		return fmt.Errorf("block: order has %d entries, want %d", len(order), n)
	}
	end, err := b.endpointIndex()
	if err != nil {
		return err
	}
	seen := make([]bool, n)
	for _, i := range order {
		found := false
		for t := 0; t < len(b.Rows[i]); t++ {
			v := b.Rows[i][t]
			if seen[v] {
				continue
			}
			seen[v] = true
			if err := b.cp(i, t, end); err != nil {
				return err
			}
			found = true
			break
		}
		if !found {
			return fmt.Errorf("block: PtS read row %d without a new vertex", i)
		}
	}
	return nil
}
