package roundop_test

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"pseudosphere/internal/asyncmodel"
	"pseudosphere/internal/iis"
	"pseudosphere/internal/modelspec"
	"pseudosphere/internal/pc"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/semisync"
	"pseudosphere/internal/syncmodel"
	"pseudosphere/internal/views"
)

// TestPlanShardsMatchesParallelBuild is the exported shard plan's
// contract: enumerating every shard independently (any order, any
// grouping) and merging, as a distributed build does, must reproduce
// Build bit for bit —
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
			want, err := roundop.Build(context.Background(), tc.op, in, tc.r, roundop.Options{})
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
			if want := countInsertions(t, tc.op, pc.InputViews(in), tc.r); total != want {
				t.Fatalf("sum of Facets = %d, reference insertion count = %d", total, want)
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
				t.Fatalf("shard-merged hash %s != Build hash %s", g, w)
			}
			if len(got.Views) != len(want.Views) {
				t.Fatalf("shard-merged views %d != Build views %d", len(got.Views), len(want.Views))
			}
		})
	}
}

// TestPlanShardsRejectsBadInput: r < 1 has no facet product to shard,
// a branch whose product overflows int64 cannot be indexed, and
// out-of-range shard indices must error, not panic or silently no-op.
// A^1 n=8 f=8 has one branch of 2^72 facets, a product that wraps to
// exactly 0 in int64 arithmetic: Build must refuse it rather than skip
// the branch and return an empty complex.
func TestPlanShardsRejectsBadInput(t *testing.T) {
	op := asyncmodel.Params{N: 2, F: 1}.Operator()
	if _, err := roundop.PlanShards(op, input(2), 0); err == nil || !strings.Contains(err.Error(), "r >= 1") {
		t.Fatalf("PlanShards(r=0) err = %v, want r >= 1 complaint", err)
	}
	if _, err := roundop.Build(context.Background(), asyncmodel.Params{N: 8, F: 8}.Operator(), input(8), 1, roundop.Options{}); err == nil {
		t.Fatal("Build of a 2^72-facet branch returned no error")
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
// order interning facet by facet does, one and two rounds deep. That holds
// for the plan's shards run one by one into one result, which probes for
// every face, and for Build. Build inserts only each facet's new faces
// where the plan is one pseudosphere: async at every f (f = 0 gives one
// option per position, n = 0 one position) and a one-graph menu. It probes
// for the rest: sync k = 1, IIS and semisync. Product over a one-round
// build's single branch must give the same result too. Each face table,
// computed for a pseudosphere, must equal the one facet-by-facet
// interning fills by probes, slot for slot.
func TestOptionIDsKeepInterningOrder(t *testing.T) {
	type idCase struct {
		name string
		op   roundop.Operator
		n, r int
	}
	var cases []idCase
	for n := 0; n <= 4; n++ {
		for f := 0; f <= n; f++ {
			if testing.Short() && n == 4 && f > 2 {
				continue // a million facets or more each
			}
			cases = append(cases, idCase{fmt.Sprintf("async/n=%d/f=%d/r=1", n, f), asyncmodel.Params{N: n, F: f}.Operator(), n, 1})
		}
	}
	spec, err := modelspec.Parse([]byte(`{"processes": 4, "rounds": 1,
		"adversary": {"kind": "graphs", "graphs": [{"edges": [[0, 1], [1, 2], [3, 0]]}]}}`))
	if err != nil {
		t.Fatal(err)
	}
	graph, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases,
		idCase{"graphs/one graph/r=1", graph.Operator(), 3, 1},
		idCase{"sync/n=3/k=1/r=1", syncmodel.Params{PerRound: 1, Total: 1}.Operator(), 3, 1},
		idCase{"iis/n=2/r=1", iis.Operator(), 2, 1},
		idCase{"iis/n=2/r=2", iis.Operator(), 2, 2},
		idCase{"semisync/n=3/r=2", semisync.Params{C1: 1, C2: 2, D: 2, PerRound: 1, Total: 2}.Operator(), 3, 2},
	)
	for _, tc := range cases {
		want := pc.NewResult()
		internFacetByFacet(t, want, tc.op, pc.InputViews(input(tc.n)), tc.r)
		plan, err := roundop.PlanShards(tc.op, input(tc.n), tc.r)
		if err != nil {
			t.Fatal(err)
		}
		shards := pc.NewResult()
		for i := 0; i < plan.NumShards(); i++ {
			if err := plan.RunShard(shards, i); err != nil {
				t.Fatal(err)
			}
		}
		sameInterning(t, tc.name+" shards", shards, want)
		build, err := roundop.Build(context.Background(), tc.op, input(tc.n), tc.r, roundop.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sameInterning(t, tc.name+" Build", build, want)
		branches, err := tc.op.Branches(pc.InputViews(input(tc.n)))
		if err != nil {
			t.Fatal(err)
		}
		if tc.r == 1 && len(branches) == 1 {
			sameInterning(t, tc.name+" Product", roundop.Product(branches[0].Opts), want)
		}
	}
}

// sameInterning fails unless got interned the same vertices and inserted
// the same entries as want, id for id and entry for entry, with a view
// for each vertex, and has the same face table.
func sameInterning(t *testing.T, name string, got, want *pc.Result) {
	t.Helper()
	if got.Mark() != want.Mark() || len(got.Views) != len(want.Views) {
		t.Fatalf("%s: %+v and %d views, facet by facet %+v and %d", name, got.Mark(), len(got.Views), want.Mark(), len(want.Views))
	}
	for id := int32(0); id < int32(want.Complex.VertexCount()); id++ {
		if g, w := got.Complex.VertexAt(id), want.Complex.VertexAt(id); g != w {
			t.Fatalf("%s: vertex %d is %v, facet by facet %v", name, id, g, w)
		}
	}
	var g, w []int32
	for ei := int32(0); ei < int32(want.Complex.EntryCount()); ei++ {
		g, w = got.Complex.AppendEntryIDs(g[:0], ei), want.Complex.AppendEntryIDs(w[:0], ei)
		if !slices.Equal(g, w) {
			t.Fatalf("%s: entry %d is %v, facet by facet %v", name, ei, got.Complex.EntrySimplex(ei), want.Complex.EntrySimplex(ei))
		}
		if g, w := got.Complex.EntryFaces(ei), want.Complex.EntryFaces(ei); !slices.Equal(g, w) {
			t.Fatalf("%s: entry %d's faces are %v, facet by facet %v", name, ei, g, w)
		}
	}
}
