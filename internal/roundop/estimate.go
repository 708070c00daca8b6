package roundop

import (
	"fmt"
	"math"

	"pseudosphere/internal/pc"
	"pseudosphere/internal/topology"
	"pseudosphere/internal/views"
)

// EstimateFacets predicts the facet enumeration cost of an r-round Build
// of op over input without building the complex: the number of facet
// insertions the construction will perform, which a fresh Build reports
// in its "facets" counter. It exists for budgeted admission — a query
// service can refuse an oversized request in microseconds instead of
// discovering the size the expensive way.
//
// The estimate walks the branch tree the same way the construction does
// but expands only one representative facet per branch: for the in-tree
// operators a branch's continuation cost depends on the surviving
// participant set and the remaining failure budget — both constant across
// the facets of one branch — so the per-branch product size times the
// representative's continuation cost is exact for them (up to facet
// dedup: facets shared between branches are inserted once per branch, and
// insertions, not distinct facets, are what admission must bound). The
// result saturates at math.MaxInt64 instead of overflowing.
func EstimateFacets(op Operator, input topology.Simplex, r int) (int64, error) {
	if r < 0 {
		return 0, fmt.Errorf("roundop: negative round count %d", r)
	}
	return estimateRounds(op, pc.InputViews(input), r)
}

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
