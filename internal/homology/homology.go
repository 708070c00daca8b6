package homology

import "pseudosphere/internal/topology"

// ChainComplex indexes the simplexes of a topology.Complex by dimension,
// giving each simplex an integer index so boundary matrices can be built.
type ChainComplex struct {
	dim     int
	index   []map[string]int     // per dimension: simplex key -> index
	simplex [][]topology.Simplex // per dimension: index -> simplex
}

// NewChainComplex builds the index for c.
func NewChainComplex(c *topology.Complex) *ChainComplex {
	cc := &ChainComplex{dim: c.Dim()}
	if cc.dim < 0 {
		return cc
	}
	cc.index = make([]map[string]int, cc.dim+1)
	cc.simplex = make([][]topology.Simplex, cc.dim+1)
	for d := 0; d <= cc.dim; d++ {
		ss := c.Simplices(d)
		idx := make(map[string]int, len(ss))
		for i, s := range ss {
			idx[s.Key()] = i
		}
		cc.index[d] = idx
		cc.simplex[d] = ss
	}
	return cc
}

// Count returns the number of d-simplexes.
func (cc *ChainComplex) Count(d int) int {
	if d < 0 || d > cc.dim {
		return 0
	}
	return len(cc.simplex[d])
}

// boundaryZ2 builds the GF(2) boundary matrix ∂_d : C_d -> C_{d-1}.
func (cc *ChainComplex) boundaryZ2(d int) *sparseZ2Matrix {
	m := &sparseZ2Matrix{rows: cc.Count(d - 1)}
	if d <= 0 || d > cc.dim {
		m.cols = make([][]int, cc.Count(d))
		return m
	}
	m.cols = make([][]int, cc.Count(d))
	for j, s := range cc.simplex[d] {
		col := make([]int, 0, len(s))
		for i := range s {
			f := s.Face(i)
			col = append(col, cc.index[d-1][f.Key()])
		}
		m.cols[j] = normalizeColumn(col)
	}
	return m
}

// BettiZ2 returns the (non-reduced) Betti numbers over GF(2) for dimensions
// 0..maxDim of the complex. For an empty complex the slice is empty.
func BettiZ2(c *topology.Complex) []int {
	cc := NewChainComplex(c)
	if cc.dim < 0 {
		return nil
	}
	ranks := make([]int, cc.dim+2) // rank of ∂_d for d = 0..dim+1; ∂_0 and ∂_{dim+1} are zero
	for d := 1; d <= cc.dim; d++ {
		ranks[d] = cc.boundaryZ2(d).rank()
	}
	betti := make([]int, cc.dim+1)
	for d := 0; d <= cc.dim; d++ {
		betti[d] = cc.Count(d) - ranks[d] - ranks[d+1]
	}
	return betti
}

// BettiZ2UpTo is BettiZ2 capped at maxDim: the serial reference for the
// dimension-capped reduction. It returns Betti numbers for dimensions
// 0..min(maxDim, dim) only, reducing only ∂_1..∂_{maxDim+1} — a
// k-connectivity question about a high-dimensional complex never touches
// the top-dimensional boundary matrices that dominate reduction cost.
func BettiZ2UpTo(c *topology.Complex, maxDim int) []int {
	cc := NewChainComplex(c)
	if cc.dim < 0 || maxDim < 0 {
		return nil
	}
	top := min(maxDim, cc.dim)
	hi := min(top+1, cc.dim)
	ranks := make([]int, cc.dim+2)
	for d := 1; d <= hi; d++ {
		ranks[d] = cc.boundaryZ2(d).rank()
	}
	betti := make([]int, top+1)
	for d := 0; d <= top; d++ {
		betti[d] = cc.Count(d) - ranks[d] - ranks[d+1]
	}
	return betti
}

// ReducedBettiZ2 returns the reduced Betti numbers over GF(2): identical to
// BettiZ2 except that dimension 0 is decremented by one (the complex is
// 0-connected iff the reduced b0 is zero). Calling this on an empty complex
// returns nil.
func ReducedBettiZ2(c *topology.Complex) []int {
	betti := BettiZ2(c)
	if len(betti) == 0 {
		return nil
	}
	betti[0]--
	return betti
}
