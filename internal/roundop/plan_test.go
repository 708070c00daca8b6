package roundop_test

import (
	"context"
	"strings"
	"testing"

	"pseudosphere/internal/asyncmodel"
	"pseudosphere/internal/iis"
	"pseudosphere/internal/pc"
	"pseudosphere/internal/roundop"
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
				if sz := plan.Size(i); sz < 1 {
					t.Fatalf("Size(%d) = %d, want >= 1", i, sz)
				} else {
					total += sz
				}
			}
			if total != plan.TotalSize() {
				t.Fatalf("sum of Size = %d, TotalSize() = %d", total, plan.TotalSize())
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
