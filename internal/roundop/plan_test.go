package roundop_test

import (
	"context"
	"strings"
	"testing"

	"pseudosphere/internal/asyncmodel"
	"pseudosphere/internal/iis"
	"pseudosphere/internal/pc"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/semisync"
	"pseudosphere/internal/views"
)

// TestPlanShardsMatchesParallelBuild is the exported shard plan's
// contract: enumerating every shard independently (any order, any
// grouping) and merging must reproduce Build bit for bit —
// CanonicalHash and view table. This is the invariant the distributed
// construction protocol rests on: a remote worker that runs shard i of
// the plan it re-derived computes exactly the sub-complex the
// coordinator's plan means by shard i.
func TestPlanShardsMatchesParallelBuild(t *testing.T) {
	cases := []struct {
		name string
		op   roundop.Operator
		n, r int
	}{
		{"async/n=2/f=1/r=1", asyncmodel.Params{N: 2, F: 1}.Operator(), 2, 1},
		{"async/n=3/f=2/r=1", asyncmodel.Params{N: 3, F: 2}.Operator(), 3, 1},
		{"async/n=2/f=2/r=2", asyncmodel.Params{N: 2, F: 2}.Operator(), 2, 2},
		{"iis/n=2/r=2", iis.Operator(), 2, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := input(tc.n)
			want, err := roundop.Build(context.Background(), tc.op, in, tc.r, roundop.Options{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			plan, err := roundop.PlanShards(tc.op, in, tc.r)
			if err != nil {
				t.Fatal(err)
			}
			if plan.NumShards() < 1 {
				t.Fatalf("NumShards() = %d, want >= 1", plan.NumShards())
			}
			var total int64
			for i := 0; i < plan.NumShards(); i++ {
				if n := plan.Facets(i); n < 1 {
					t.Fatalf("Facets(%d) = %d, want >= 1", i, n)
				} else {
					total += n
				}
			}
			if est, err := roundop.EstimateFacets(tc.op, in, tc.r); err != nil || total != est {
				t.Fatalf("sum of Facets = %d, EstimateFacets = %d, %v", total, est, err)
			}
			// Merge the shards in reverse order into per-shard results: order
			// independence is part of the contract.
			got := pc.NewResult()
			for i := plan.NumShards() - 1; i >= 0; i-- {
				shard := pc.NewResult()
				if err := plan.RunShard(shard, i); err != nil {
					t.Fatalf("RunShard(%d): %v", i, err)
				}
				got.Merge(shard)
			}
			if g, w := got.Complex.CanonicalHash(), want.Complex.CanonicalHash(); g != w {
				t.Fatalf("shard-merged hash %s != parallel build hash %s", g, w)
			}
			if len(got.Views) != len(want.Views) {
				t.Fatalf("shard-merged views %d != parallel build views %d", len(got.Views), len(want.Views))
			}
		})
	}
}

// TestPlanShardsRejectsBadInput: r < 1 has no facet product to shard,
// and out-of-range shard indices must error, not panic or silently
// no-op.
func TestPlanShardsRejectsBadInput(t *testing.T) {
	op := asyncmodel.Params{N: 2, F: 1}.Operator()
	if _, err := roundop.PlanShards(op, input(2), 0); err == nil || !strings.Contains(err.Error(), "r >= 1") {
		t.Fatalf("PlanShards(r=0) err = %v, want r >= 1 complaint", err)
	}
	plan, err := roundop.PlanShards(op, input(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{-1, plan.NumShards()} {
		if err := plan.RunShard(pc.NewResult(), i); err == nil {
			t.Fatalf("RunShard(%d) succeeded on a %d-shard plan", i, plan.NumShards())
		}
	}
}

// internFacetByFacet is the enumeration order without option ids: every
// facet of every branch, in the plan's order, inserted through
// pc.Result.AddFacet, which interns the facet's vertices one by one.
func internFacetByFacet(t *testing.T, res *pc.Result, op roundop.Operator, cur []*views.View, r int) {
	t.Helper()
	branches, err := op.Branches(cur)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range branches {
		if len(b.Opts) == 0 || pc.ProductSize(b.Opts) == 0 {
			continue
		}
		idx := make([]int, len(b.Opts))
		for {
			facet := make([]*views.View, len(b.Opts))
			for i, o := range b.Opts {
				facet[i] = o[idx[i]].View
			}
			if r == 1 {
				res.AddFacet(facet)
			} else {
				internFacetByFacet(t, res, b.Next, facet, r-1)
			}
			if !pc.Advance(idx, b.Opts) {
				break
			}
		}
	}
}

// TestOptionIDsKeepInterningOrder: resolving each option to its vertex id
// once per shard assigns the ids, and inserts the entries, in exactly the
// order interning facet by facet does, one and two rounds deep.
func TestOptionIDsKeepInterningOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   roundop.Operator
		n, r int
	}{
		{"async/n=3/f=3/r=1", asyncmodel.Params{N: 3, F: 3}.Operator(), 3, 1},
		{"iis/n=2/r=2", iis.Operator(), 2, 2},
		{"semisync/n=3/r=2", semisync.Params{C1: 1, C2: 2, D: 2, PerRound: 1, Total: 2}.Operator(), 3, 2},
	} {
		plan, err := roundop.PlanShards(tc.op, input(tc.n), tc.r)
		if err != nil {
			t.Fatal(err)
		}
		got := pc.NewResult()
		for i := 0; i < plan.NumShards(); i++ {
			if err := plan.RunShard(got, i); err != nil {
				t.Fatal(err)
			}
		}
		want := pc.NewResult()
		internFacetByFacet(t, want, tc.op, pc.InputViews(input(tc.n)), tc.r)
		if got.Mark() != want.Mark() || len(got.Views) != len(want.Views) {
			t.Fatalf("%s: %+v and %d views, facet by facet %+v and %d", tc.name, got.Mark(), len(got.Views), want.Mark(), len(want.Views))
		}
		for id := int32(0); id < int32(want.Complex.VertexCount()); id++ {
			if g, w := got.Complex.VertexAt(id), want.Complex.VertexAt(id); g != w {
				t.Fatalf("%s: vertex %d is %v, facet by facet %v", tc.name, id, g, w)
			}
		}
		for ei := int32(0); ei < int32(want.Complex.EntryCount()); ei++ {
			if g, w := got.Complex.EntrySimplex(ei), want.Complex.EntrySimplex(ei); !g.Equal(w) {
				t.Fatalf("%s: entry %d is %v, facet by facet %v", tc.name, ei, g, w)
			}
		}
	}
}
