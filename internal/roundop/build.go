package roundop

import (
	"context"
	"fmt"

	"pseudosphere/internal/obs"
	"pseudosphere/internal/pc"
	"pseudosphere/internal/topology"
)

// Options sets how Build runs. No field changes the complex it returns.
type Options struct {
	// Checkpoint, when non-nil, persists progress at shard boundaries and
	// resumes from what a previous run persisted (see Checkpointer).
	Checkpoint Checkpointer
	// FlushEvery is the number of completed shards between two
	// Checkpoint.Flush calls (at least 1). It is unused without a
	// Checkpoint. A SIGKILL loses the shards completed since the last
	// Flush, up to FlushEvery−1 of them. It also loses whatever the
	// Checkpointer accepted but had not yet made durable: a
	// jobs.CheckpointLog syncs its records on a writer goroutine and holds
	// at most 8 unsynced ones, so up to 8·FlushEvery more shards.
	FlushEvery int
}

// Build returns the iterated complex R^r(S) of op over the input simplex:
// the union over the facets T of one round of R^{r-1}(T), per the
// inductive definition shared by Sections 6–8. Intermediate rounds only
// thread views forward; only the final round's global states become
// simplexes of the r-round complex, and R^0(S) is the closure of S.
//
// The first round's branches are cut into the shards of PlanShards, and
// Build runs them in index order, in one loop on the caller's goroutine,
// straight into its result. The complex is a set whose accessors all
// sort, so merging the shards' RunShard results in any order, as a
// distributed build does, gives the same complex and the same
// CanonicalHash bit for bit.
//
// When the plan is one pseudosphere (one branch with facets at r = 1:
// async, sync with k = 0, a one-graph menu) and the build is fresh (no
// shard restored, the result empty), the arena is sized once for the
// whole complex, and each facet appends only the faces it is the first to
// hold, with no hash and no index slot. The entries are the ones the
// probing closure walk, which every other build runs (a resumed one
// included), would insert, in the same order. A completed build then
// computes its face table from the option table instead of probing, and
// its index is built only if something looks a simplex up.
//
// The loop checks ctx before every shard: after cancellation Build
// returns ctx.Err() once the shard in hand finishes. An obs.Tracker
// carried by ctx (obs.FromContext) has its "facets" counter bumped by
// each shard's final-round facet insertions, so a fresh build of an
// in-tree operator ends with the counter at the instance's count
// (modelspec's Instance.Estimate).
//
// With a Checkpoint, shards a previous run persisted are skipped, and the
// partial result Restore returns becomes the build's result. Build hands
// its result to Checkpoint.Flush every FlushEvery completed shards, and
// once more when it stops, so a SIGTERM mid-build loses at most the shard
// in hand, never completed ones. A shard that fails ends the build
// without a Flush, since the result then holds part of that shard. The
// result is the same complex, resumed or not, because shards partition
// the facet product and the complex is a set.
func Build(ctx context.Context, op Operator, input topology.Simplex, r int, o Options) (*pc.Result, error) {
	if r < 0 {
		return nil, fmt.Errorf("roundop: negative round count %d", r)
	}
	if r == 0 {
		res := pc.NewResult()
		res.AddFacet(pc.InputViews(input))
		return res, nil
	}
	plan, err := PlanShards(op, input, r)
	if err != nil {
		return nil, err
	}
	res, todo, err := restore(ctx, plan, o.Checkpoint)
	if err != nil {
		return nil, err
	}
	tr := obs.FromContext(ctx)
	facets := tr.Counter("facets")
	flushEvery := max(o.FlushEvery, 1)
	// done lists the shards run since the last Flush. Each Flush is handed
	// a fresh slice, because a Checkpointer may keep the one it gets.
	var done []int
	flush := func() error {
		if len(done) == 0 {
			return nil
		}
		if err := o.Checkpoint.Flush(done, res); err != nil {
			return fmt.Errorf("roundop: flush checkpoint: %w", err)
		}
		tr.Counter("ckpt_flushes").Add(1)
		tr.Counter("shards_done").Add(uint64(len(done)))
		done = nil
		return nil
	}
	var e enum
	if plan.sphere != nil && len(todo) == len(plan.jobs) && res.Complex.EntryCount() == 0 {
		e.sphere(res, plan.sphere)
	}
	for _, i := range todo {
		if err := ctx.Err(); err != nil {
			if ferr := flush(); ferr != nil {
				return nil, ferr
			}
			return nil, err
		}
		n, err := e.run(res, plan.jobs[i], plan.r)
		if err != nil {
			return nil, err
		}
		facets.Add(uint64(n))
		if o.Checkpoint == nil {
			continue
		}
		if done = append(done, i); len(done) == flushEvery {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	e.markSphere(res, plan.sphere)
	if err := flush(); err != nil {
		return nil, err
	}
	return res, nil
}
