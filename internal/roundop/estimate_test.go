package roundop_test

import (
	"testing"

	"pseudosphere/internal/asyncmodel"
	"pseudosphere/internal/custommodel"
	"pseudosphere/internal/iis"
	"pseudosphere/internal/pc"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/semisync"
	"pseudosphere/internal/syncmodel"
	"pseudosphere/internal/topology"
	"pseudosphere/internal/views"
)

// countInsertions is the unsampled reference for EstimateFacets: it walks
// every facet of every branch recursively and counts the facet insertions
// the real construction performs.
func countInsertions(t *testing.T, op roundop.Operator, cur []*views.View, r int) int64 {
	t.Helper()
	if r == 0 {
		return 1
	}
	branches, err := op.Branches(cur)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, b := range branches {
		if len(b.Opts) == 0 || pc.ProductSize(b.Opts) == 0 {
			continue
		}
		idx := make([]int, len(b.Opts))
		verts := make([]topology.Vertex, len(b.Opts))
		for {
			facet := make([]*views.View, len(b.Opts))
			pc.FillFacet(facet, verts, b.Opts, idx)
			total += countInsertions(t, b.Next, facet, r-1)
			if !pc.Advance(idx, b.Opts) {
				break
			}
		}
	}
	return total
}

// TestEstimateFacetsExactForInTreeOperators pins the admission seam
// against the unsampled reference count on every model's operator, one
// and two rounds deep: the one-representative-per-branch sampling must
// lose nothing, because a branch's continuation cost depends only on the
// surviving participant set and remaining budget. It also checks that
// FacetCount agrees with len(Facets()) on every model's round complex.
func TestEstimateFacetsExactForInTreeOperators(t *testing.T) {
	in := input(2)
	for _, tc := range []struct {
		name string
		op   roundop.Operator
		r    int
	}{
		{"async-r1", asyncmodel.Params{N: 2, F: 1}.Operator(), 1},
		{"async-r2", asyncmodel.Params{N: 2, F: 2}.Operator(), 2},
		{"sync-r1", syncmodel.Params{PerRound: 1, Total: 2}.Operator(), 1},
		{"sync-r2", syncmodel.Params{PerRound: 1, Total: 2}.Operator(), 2},
		{"semisync-r1", semisync.Params{C1: 1, C2: 2, D: 2, PerRound: 1, Total: 1}.Operator(), 1},
		{"iis-r2", iis.Operator(), 2},
		{"custom-r2", custommodel.Params{PerRound: 1}.Operator(), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := countInsertions(t, tc.op, pc.InputViews(in), tc.r)
			got, err := roundop.EstimateFacets(tc.op, in, tc.r)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("EstimateFacets = %d, reference insertion count = %d", got, want)
			}
			// The estimate bounds the true facet count from above.
			res, err := roundop.Rounds(tc.op, in, tc.r)
			if err != nil {
				t.Fatal(err)
			}
			facets := int64(len(res.Complex.Facets()))
			if got < facets {
				t.Fatalf("estimate %d below actual facet count %d", got, facets)
			}
			if n := int64(res.Complex.FacetCount()); n != facets {
				t.Fatalf("FacetCount = %d, len(Facets()) = %d", n, facets)
			}
		})
	}
}

func TestEstimateFacetsNegativeRounds(t *testing.T) {
	if _, err := roundop.EstimateFacets(iis.Operator(), input(1), -1); err == nil {
		t.Fatal("want error for negative round count")
	}
}

func TestEstimateFacetsZeroRounds(t *testing.T) {
	got, err := roundop.EstimateFacets(iis.Operator(), input(1), 0)
	if err != nil || got != 1 {
		t.Fatalf("EstimateFacets(r=0) = %d, %v; want 1, nil", got, err)
	}
}
