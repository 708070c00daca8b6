package iis

import (
	"fmt"
	"slices"

	"pseudosphere/internal/pc"
	"pseudosphere/internal/topology"
	"pseudosphere/internal/views"
)

// LegacySerialRounds is the pre-engine serial construction of IIS_r,
// retained as a reference implementation: the differential tests
// pin the roundop engine's output against it hash for hash. Note it emits
// each facet's views in partition-block order where the engine emits
// ascending process order; the resulting complexes and view maps are
// identical because vertex encodings are canonical and pc.Result sorts.
func LegacySerialRounds(input topology.Simplex, r int) (*pc.Result, error) {
	if r < 0 {
		return nil, fmt.Errorf("iis: negative round count %d", r)
	}
	res := pc.NewResult()
	legacyRoundsRec(res, pc.InputViews(input), r)
	return res, nil
}

// legacyAppendOneRound enumerates ordered partitions of cur and records
// each resulting global state; it returns the facets as view lists.
func legacyAppendOneRound(res *pc.Result, cur []*views.View) [][]*views.View {
	byID := make(map[int]*views.View, len(cur))
	ids := make([]int, len(cur))
	for i, v := range cur {
		byID[v.P] = v
		ids[i] = v.P
	}
	var facets [][]*views.View
	for _, partition := range OrderedPartitions(ids) {
		facet := make([]*views.View, 0, len(cur))
		var seen []int
		for _, block := range partition {
			seen = append(seen, block...)
			heard := make([]*views.View, len(seen))
			for i, q := range seen {
				heard[i] = byID[q]
			}
			slices.SortFunc(heard, func(a, b *views.View) int { return a.P - b.P })
			h := views.NewHeard(heard, nil)
			for _, p := range block {
				facet = append(facet, h.View(p))
			}
		}
		res.AddFacet(facet)
		facets = append(facets, facet)
	}
	return facets
}

func legacyRoundsRec(res *pc.Result, cur []*views.View, r int) {
	if r == 0 {
		res.AddFacet(cur)
		return
	}
	scratch := res
	if r > 1 {
		scratch = pc.NewResult()
	}
	for _, facet := range legacyAppendOneRound(scratch, cur) {
		legacyRoundsRec(res, facet, r-1)
	}
}
