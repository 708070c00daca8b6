package homology

import (
	"math/big"
	"sync/atomic"

	"pseudosphere/internal/topology"
)

// rationalRank computes the rank of an integer matrix exactly over the
// rationals using big.Rat Gaussian elimination. Exact but slow: it is
// the serial Q oracle, and the Q store's fallback when its int64
// entries overflow. A non-nil cancelled flag is probed once per pivot
// column; on cancellation the returned rank is meaningless.
func rationalRank(signs [][]int64, cancelled *atomic.Bool) int {
	rows, cols := len(signs), 0
	if rows > 0 {
		cols = len(signs[0])
	}
	a := make([][]*big.Rat, rows)
	for i := range a {
		a[i] = make([]*big.Rat, cols)
		for j := range a[i] {
			a[i][j] = new(big.Rat).SetInt64(signs[i][j])
		}
	}
	rank := 0
	for col := 0; col < cols && rank < rows; col++ {
		if cancelled != nil && cancelled.Load() {
			return rank
		}
		pivot := -1
		for r := rank; r < rows; r++ {
			if a[r][col].Sign() != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		a[rank], a[pivot] = a[pivot], a[rank]
		inv := new(big.Rat).Inv(a[rank][col])
		for j := col; j < cols; j++ {
			a[rank][j].Mul(a[rank][j], inv)
		}
		for r := 0; r < rows; r++ {
			if r == rank || a[r][col].Sign() == 0 {
				continue
			}
			factor := new(big.Rat).Set(a[r][col])
			for j := col; j < cols; j++ {
				t := new(big.Rat).Mul(factor, a[rank][j])
				a[r][j].Sub(a[r][j], t)
			}
		}
		rank++
	}
	return rank
}

// signedBoundary builds the integer boundary matrix ∂_d as a dense array of
// signs in {-1, 0, +1}.
func (cc *ChainComplex) signedBoundary(d int) [][]int64 {
	rows, cols := cc.Count(d-1), cc.Count(d)
	a := make([][]int64, rows)
	for i := range a {
		a[i] = make([]int64, cols)
	}
	if d <= 0 || d > cc.dim {
		return a
	}
	for j, s := range cc.simplex[d] {
		sign := int64(1)
		for i := range s {
			f := s.Face(i)
			a[cc.index[d-1][f.Key()]][j] = sign
			sign = -sign
		}
	}
	return a
}

// BettiQ returns the Betti numbers of c over the rational numbers,
// computed exactly. Intended for small complexes (tests and spot checks);
// for large complexes use BettiZ2 / BettiGFp.
func BettiQ(c *topology.Complex) []int {
	cc := NewChainComplex(c)
	if cc.dim < 0 {
		return nil
	}
	ranks := make([]int, cc.dim+2)
	for d := 1; d <= cc.dim; d++ {
		ranks[d] = rationalRank(cc.signedBoundary(d), nil)
	}
	betti := make([]int, cc.dim+1)
	for d := 0; d <= cc.dim; d++ {
		betti[d] = cc.Count(d) - ranks[d] - ranks[d+1]
	}
	return betti
}
