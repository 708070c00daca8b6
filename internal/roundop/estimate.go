package roundop

import (
	"math"

	"pseudosphere/internal/pc"
	"pseudosphere/internal/views"
)

// estimateRounds returns the facet insertions of an r-round build from
// cur, walking the branch tree as the construction does but expanding one
// representative facet per branch, saturating. It is exact for the
// in-tree operators, whose continuation cost depends only on the
// surviving participants and the remaining budget, both constant across
// a branch. ShardPlan.Facets, through continuation, is its only user; a
// whole build is priced by the model's arithmetic count (modelspec).
func estimateRounds(op Operator, cur []*views.View, r int) (int64, error) {
	if r == 0 {
		return 1, nil
	}
	branches, err := op.Branches(cur)
	if err != nil {
		return 0, err
	}
	total := int64(0)
	for _, b := range branches {
		size := pc.ProductSize(b.Opts)
		if len(b.Opts) == 0 || size == 0 {
			continue
		}
		per := int64(1)
		if r > 1 {
			if per, err = continuation(b.Opts, b.Next, r); err != nil {
				return 0, err
			}
		}
		total = satAdd(total, pc.SatMul(size, per))
	}
	return total, nil
}

// continuation returns the facet insertions the r-1 rounds after one
// facet of a branch perform, expanding one representative facet: index 0
// of the branch's product.
func continuation(opts [][]pc.Option, next Operator, r int) (int64, error) {
	facet := make([]*views.View, len(opts))
	for i, o := range opts {
		facet[i] = o[0].View
	}
	return estimateRounds(next, facet, r-1)
}

func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}
