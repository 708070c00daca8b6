package homology

import (
	"fmt"

	"pseudosphere/internal/topology"
)

// denseGFp is a dense matrix over the prime field GF(p), used as a
// cross-check of the GF(2) engine and to rule out odd torsion on small
// complexes. Entries are stored reduced mod p.
type denseGFp struct {
	p    int64
	rows int
	cols int
	a    [][]int64
}

func newDenseGFp(p int64, rows, cols int) *denseGFp {
	a := make([][]int64, rows)
	for i := range a {
		a[i] = make([]int64, cols)
	}
	return &denseGFp{p: p, rows: rows, cols: cols, a: a}
}

func (m *denseGFp) set(i, j int, v int64) {
	v %= m.p
	if v < 0 {
		v += m.p
	}
	m.a[i][j] = v
}

// rank performs Gaussian elimination over GF(p).
func (m *denseGFp) rank() int {
	rank := 0
	for col := 0; col < m.cols && rank < m.rows; col++ {
		pivot := -1
		for r := rank; r < m.rows; r++ {
			if m.a[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		m.a[rank], m.a[pivot] = m.a[pivot], m.a[rank]
		inv := modInverse(m.a[rank][col], m.p)
		for j := col; j < m.cols; j++ {
			m.a[rank][j] = m.a[rank][j] * inv % m.p
		}
		for r := 0; r < m.rows; r++ {
			if r == rank || m.a[r][col] == 0 {
				continue
			}
			factor := m.a[r][col]
			for j := col; j < m.cols; j++ {
				m.a[r][j] = (m.a[r][j] - factor*m.a[rank][j]%m.p + m.p*m.p) % m.p
			}
		}
		rank++
	}
	return rank
}

// checkModulus rejects a GF(p) modulus outside [2, 2^31). Primality is
// the caller's to guarantee. The bound keeps every product of two
// residues, p² included, below 2^62.
func checkModulus(p int64) error {
	if p < 2 {
		return fmt.Errorf("homology: %d is not a prime", p)
	}
	if p >= 1<<31 {
		return fmt.Errorf("homology: modulus %d is not below 2^31", p)
	}
	return nil
}

// modInverse returns x^(p-2) mod p for prime p (Fermat).
func modInverse(x, p int64) int64 {
	result := int64(1)
	base := x % p
	exp := p - 2
	for exp > 0 {
		if exp&1 == 1 {
			result = result * base % p
		}
		base = base * base % p
		exp >>= 1
	}
	return result
}

// boundaryGFp builds the signed boundary matrix ∂_d over GF(p). Vertices
// within a simplex are ordered by process id, so the orientation
// convention is consistent across the complex.
func (cc *ChainComplex) boundaryGFp(p int64, d int) *denseGFp {
	m := newDenseGFp(p, cc.Count(d-1), cc.Count(d))
	if d <= 0 || d > cc.dim {
		return m
	}
	for j, s := range cc.simplex[d] {
		sign := int64(1)
		for i := range s {
			f := s.Face(i)
			m.set(cc.index[d-1][f.Key()], j, sign)
			sign = -sign
		}
	}
	return m
}

// BettiGFp returns the Betti numbers of c over GF(p) for a prime p below
// 2^31. For p = 2 the result always matches BettiZ2 (the test suite
// checks this); odd p detects 2-torsion-free discrepancies that GF(2)
// could mask.
func BettiGFp(c *topology.Complex, p int64) ([]int, error) {
	if err := checkModulus(p); err != nil {
		return nil, err
	}
	cc := NewChainComplex(c)
	if cc.dim < 0 {
		return nil, nil
	}
	ranks := make([]int, cc.dim+2)
	for d := 1; d <= cc.dim; d++ {
		ranks[d] = cc.boundaryGFp(p, d).rank()
	}
	betti := make([]int, cc.dim+1)
	for d := 0; d <= cc.dim; d++ {
		betti[d] = cc.Count(d) - ranks[d] - ranks[d+1]
	}
	return betti, nil
}
