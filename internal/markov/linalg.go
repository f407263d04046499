package markov

import (
	"errors"
	"fmt"
)

// Dense is a small row-major dense matrix used internally for the linear
// solves behind hitting times. It is deliberately minimal: the analytics
// layer needs LU factorisation with partial pivoting and nothing more.
type Dense struct {
	n    int
	data []float64
}

// NewDense returns an n x n zero matrix.
func NewDense(n int) *Dense {
	return &Dense{n: n, data: make([]float64, n*n)}
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.data[i*m.n+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.n+j] = v }

// Add increments element (i, j).
func (m *Dense) Add(i, j int, v float64) { m.data[i*m.n+j] += v }

// LU holds an LU factorisation with partial pivoting (PA = LU), produced
// by Factor and consumed by Solve.
type LU struct {
	n    int
	lu   []float64
	piv  []int
	sign int
}

// Factor computes the LU factorisation of m with partial pivoting. The
// receiver is not modified. It fails if the matrix is numerically
// singular.
func (m *Dense) Factor() (*LU, error) {
	n := m.n
	f := &LU{n: n, lu: make([]float64, n*n), piv: make([]int, n), sign: 1}
	copy(f.lu, m.data)
	for i := range f.piv {
		f.piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivot: choose the largest magnitude in column k.
		p, maxAbs := k, abs(f.lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := abs(f.lu[i*n+k]); a > maxAbs {
				p, maxAbs = i, a
			}
		}
		if maxAbs == 0 {
			return nil, fmt.Errorf("markov: singular matrix at pivot %d", k)
		}
		if p != k {
			row0 := f.lu[k*n : k*n+n]
			row1 := f.lu[p*n : p*n+n]
			for j := range row0 {
				row0[j], row1[j] = row1[j], row0[j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
			f.sign = -f.sign
		}
		pivot := f.lu[k*n+k]
		for i := k + 1; i < n; i++ {
			l := f.lu[i*n+k] / pivot
			f.lu[i*n+k] = l
			if l == 0 {
				continue
			}
			rowI := f.lu[i*n+k+1 : i*n+n]
			rowK := f.lu[k*n+k+1 : k*n+n]
			for j := range rowI {
				rowI[j] -= l * rowK[j]
			}
		}
	}
	return f, nil
}

// Solve solves A x = b for the factored matrix, returning a fresh slice.
func (f *LU) Solve(b []float64) ([]float64, error) {
	if len(b) != f.n {
		return nil, errors.New("markov: rhs dimension mismatch")
	}
	n := f.n
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		s := x[i]
		row := f.lu[i*n : i*n+i]
		for j, l := range row {
			s -= l * x[j]
		}
		x[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		row := f.lu[i*n+i+1 : i*n+n]
		for j, u := range row {
			s -= u * x[i+1+j]
		}
		x[i] = s / f.lu[i*n+i]
	}
	return x, nil
}

// Inverse returns the matrix inverse by solving against the identity,
// column by column.
func (m *Dense) Inverse() (*Dense, error) {
	f, err := m.Factor()
	if err != nil {
		return nil, err
	}
	n := m.n
	inv := NewDense(n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col, err := f.Solve(e)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	return inv, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
